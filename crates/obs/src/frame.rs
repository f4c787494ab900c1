//! Checksummed file framing, shared by every on-disk store that must not
//! trust the disk (the serve checkpoint store, the run cache).
//!
//! A framed file is one header line followed by the payload:
//!
//! ```text
//! <magic> <format-version> <crc32-hex> <payload-bytes>\n
//! <payload>
//! ```
//!
//! [`decode`] checks the magic, the version, the length and the CRC-32
//! before handing out the payload, so a truncated write or a flipped bit
//! anywhere in the file is an error, never a silently different payload.

/// CRC-32 (IEEE 802.3, reflected polynomial) over `bytes`. Hand-rolled
/// bitwise form: stores frame at checkpoint or cache-entry cadence, not
/// per step, so table-free simplicity beats throughput here.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Frames `payload` under a `magic` token and format `version`.
pub fn encode(magic: &str, version: u32, payload: &[u8]) -> Vec<u8> {
    let header = format!("{magic} {version} {:08x} {}\n", crc32(payload), payload.len());
    let mut out = Vec::with_capacity(header.len() + payload.len());
    out.extend_from_slice(header.as_bytes());
    out.extend_from_slice(payload);
    out
}

/// Verifies a framed file and returns its payload.
///
/// # Errors
///
/// A human-readable reason when the header is missing or malformed, the
/// magic or version differ from `magic`/`version`, or the payload's
/// length or CRC-32 disagrees with the header.
pub fn decode<'a>(magic: &str, version: u32, raw: &'a [u8]) -> Result<&'a [u8], String> {
    let newline =
        raw.iter().position(|&b| b == b'\n').ok_or_else(|| "missing header".to_owned())?;
    let header = std::str::from_utf8(&raw[..newline]).map_err(|_| "non-UTF-8 header".to_owned())?;
    let mut parts = header.split(' ');
    if parts.next() != Some(magic) {
        return Err("bad magic".to_owned());
    }
    let found: u32 =
        parts.next().and_then(|s| s.parse().ok()).ok_or_else(|| "bad version".to_owned())?;
    if found != version {
        return Err(format!("unsupported format version {found}"));
    }
    let crc_expected = parts
        .next()
        .and_then(|s| u32::from_str_radix(s, 16).ok())
        .ok_or_else(|| "bad crc field".to_owned())?;
    let len: usize =
        parts.next().and_then(|s| s.parse().ok()).ok_or_else(|| "bad length field".to_owned())?;
    if parts.next().is_some() {
        return Err("trailing header fields".to_owned());
    }
    let payload = &raw[newline + 1..];
    if payload.len() != len {
        return Err(format!("truncated payload: {} of {len} bytes", payload.len()));
    }
    let crc_actual = crc32(payload);
    if crc_actual != crc_expected {
        return Err(format!("crc mismatch: {crc_actual:08x} != {crc_expected:08x}"));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn frames_round_trip_and_refuse_other_formats() {
        let framed = encode("makx", 3, b"{\"a\":1}");
        assert_eq!(framed, b"makx 3 561bacaf 7\n{\"a\":1}");
        assert_eq!(decode("makx", 3, &framed), Ok(&b"{\"a\":1}"[..]));
        assert_eq!(decode("maky", 3, &framed), Err("bad magic".to_owned()));
        assert_eq!(decode("makx", 4, &framed), Err("unsupported format version 3".to_owned()));
    }
}
