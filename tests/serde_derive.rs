//! The `#[derive(Serialize, Deserialize)]` subset the workspace relies on,
//! pinned to the exact JSON upstream serde + serde_json emit for each
//! supported attribute and shape. Uses only the upstream API, so the file
//! reads the same against the real crates.

use serde::{Deserialize, Serialize};

/// Asserts `value` encodes as `json` and returns `json` decoded.
fn round_trip<T: Serialize + Deserialize>(value: &T, json: &str) -> T {
    assert_eq!(serde_json::to_string(value).unwrap(), json);
    serde_json::from_str(json).unwrap()
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Skipped {
    kept: u32,
    #[serde(skip)]
    cache: String,
}

#[test]
fn skipped_fields_are_absent_and_restored_from_default() {
    let back = round_trip(&Skipped { kept: 1, cache: "warm".into() }, r#"{"kept":1}"#);
    assert_eq!(back, Skipped { kept: 1, cache: String::new() });
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Sparse {
    id: u32,
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    tags: Vec<String>,
    #[serde(skip_serializing_if = "Option::is_none")]
    note: Option<u8>,
}

#[test]
fn skip_serializing_if_omits_the_field() {
    let empty = Sparse { id: 1, tags: vec![], note: None };
    assert_eq!(round_trip(&empty, r#"{"id":1}"#), empty);
    let full = Sparse { id: 1, tags: vec!["a".into()], note: Some(2) };
    assert_eq!(round_trip(&full, r#"{"id":1,"tags":["a"],"note":2}"#), full);
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Defaulted {
    id: u32,
    #[serde(default)]
    added_later: u64,
}

#[test]
fn default_fills_a_missing_field() {
    let old: Defaulted = serde_json::from_str(r#"{"id":7}"#).unwrap();
    assert_eq!(old, Defaulted { id: 7, added_later: 0 });
    let new = Defaulted { id: 7, added_later: 3 };
    assert_eq!(round_trip(&new, r#"{"id":7,"added_later":3}"#), new);
    assert!(serde_json::from_str::<Defaulted>(r#"{"added_later":3}"#).is_err(), "id is required");
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Meters(f64);

#[test]
fn newtype_structs_encode_as_their_inner_value() {
    assert_eq!(round_trip(&Meters(1.5), "1.5"), Meters(1.5));
    assert!(serde_json::from_str::<Meters>("[1.5]").is_err());
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Figure {
    Dot,
    Circle(f64),
    Rect { w: u32, h: u32 },
}

#[test]
fn enums_are_externally_tagged_with_newtype_variants_as_single_entry_objects() {
    assert_eq!(round_trip(&Figure::Dot, r#""Dot""#), Figure::Dot);
    assert_eq!(round_trip(&Figure::Circle(2.0), r#"{"Circle":2.0}"#), Figure::Circle(2.0));
    let rect = Figure::Rect { w: 1, h: 2 };
    assert_eq!(round_trip(&rect, r#"{"Rect":{"w":1,"h":2}}"#), rect);
    assert!(serde_json::from_str::<Figure>(r#"{"Square":1}"#).is_err());
}

/// Validated on decode: only even numbers.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "u32")]
struct Even(u32);

impl TryFrom<u32> for Even {
    type Error = String;

    fn try_from(n: u32) -> Result<Self, String> {
        if n % 2 == 1 {
            return Err(format!("{n} is odd"));
        }
        Ok(Even(n))
    }
}

/// Stored in a different form than held: a hex string.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(into = "String", try_from = "String")]
struct Hex(u32);

impl From<Hex> for String {
    fn from(hex: Hex) -> Self {
        format!("{:x}", hex.0)
    }
}

impl TryFrom<String> for Hex {
    type Error = std::num::ParseIntError;

    fn try_from(s: String) -> Result<Self, Self::Error> {
        u32::from_str_radix(&s, 16).map(Hex)
    }
}

#[test]
fn try_from_validates_and_its_errors_surface_as_decode_errors() {
    assert_eq!(round_trip(&Even(4), "4"), Even(4));
    let err = serde_json::from_str::<Even>("3").unwrap_err();
    assert!(err.to_string().contains("3 is odd"), "{err}");
    assert!(serde_json::from_str::<Even>(r#""4""#).is_err(), "the source type's shape applies");
}

#[test]
fn into_encodes_through_the_target_type() {
    assert_eq!(round_trip(&Hex(255), r#""ff""#), Hex(255));
    let err = serde_json::from_str::<Hex>(r#""zz""#).unwrap_err();
    assert!(err.to_string().contains("invalid digit"), "{err}");
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Words {
    rng: [u64; 4],
}

#[test]
fn fixed_size_arrays_encode_as_arrays_and_refuse_other_lengths() {
    let words = Words { rng: [1, 2, 3, 4] };
    assert_eq!(round_trip(&words, r#"{"rng":[1,2,3,4]}"#), words);
    for wrong in [r#"{"rng":[]}"#, r#"{"rng":[1,2]}"#, r#"{"rng":[1,2,3,4,5]}"#] {
        assert!(serde_json::from_str::<Words>(wrong).is_err(), "{wrong} accepted");
    }
}
