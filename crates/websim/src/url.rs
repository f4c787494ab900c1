//! A small, deterministic URL type.
//!
//! The simulator does not need the full generality of WHATWG URLs; it needs
//! exactly the pieces the paper's crawlers reason about: scheme, host, path
//! and an **ordered** query string. Ordering matters because WebExplor's
//! state abstraction performs *exact* URL matching (§III-A of the paper), so
//! `?a=1&b=2` and `?b=2&a=1` must be distinguishable, while the normalized
//! form used for link-coverage accounting sorts parameters.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// An absolute URL as used by the simulated web applications.
///
/// # Examples
///
/// ```
/// use mak_websim::url::Url;
///
/// let url: Url = "http://app.local/review?p=8&r=23".parse()?;
/// assert_eq!(url.host(), "app.local");
/// assert_eq!(url.path(), "/review");
/// assert_eq!(url.query_value("p"), Some("8"));
/// # Ok::<(), mak_websim::url::ParseUrlError>(())
/// ```
///
/// Checkpoints persist a URL as its display string; `Display → parse` is
/// a fixpoint (query order is preserved), so restored URLs compare equal
/// and normalize identically.
#[derive(Clone, Serialize, Deserialize)]
#[serde(into = "String", try_from = "String")]
pub struct Url {
    scheme: String,
    host: String,
    path: String,
    query: Vec<(String, String)>,
    /// Lazily computed [`Url::normalized`] form. Purely derived data: it is
    /// excluded from equality, ordering, hashing and `Debug`, and every
    /// constructor/mutator leaves it unset. Cloning preserves a filled
    /// cache, which is what makes shared (`Arc`-held) documents cheap to
    /// re-normalize.
    normalized: OnceLock<Box<str>>,
}

// Manual impls over the four semantic fields only (same field order the
// former `derive` used), so the cache cannot influence comparisons.
impl PartialEq for Url {
    fn eq(&self, other: &Self) -> bool {
        self.scheme == other.scheme
            && self.host == other.host
            && self.path == other.path
            && self.query == other.query
    }
}

impl Eq for Url {}

impl std::hash::Hash for Url {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.scheme.hash(state);
        self.host.hash(state);
        self.path.hash(state);
        self.query.hash(state);
    }
}

impl PartialOrd for Url {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Url {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (&self.scheme, &self.host, &self.path, &self.query).cmp(&(
            &other.scheme,
            &other.host,
            &other.path,
            &other.query,
        ))
    }
}

impl fmt::Debug for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Url")
            .field("scheme", &self.scheme)
            .field("host", &self.host)
            .field("path", &self.path)
            .field("query", &self.query)
            .finish()
    }
}

/// Error returned when parsing a malformed URL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseUrlError {
    input: String,
    reason: &'static str,
}

impl fmt::Display for ParseUrlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid URL `{}`: {}", self.input, self.reason)
    }
}

impl std::error::Error for ParseUrlError {}

impl Url {
    /// Builds a URL from parts. The path is normalized to start with `/`.
    ///
    /// # Examples
    ///
    /// ```
    /// use mak_websim::url::Url;
    /// let url = Url::new("app.local", "/index.php");
    /// assert_eq!(url.to_string(), "http://app.local/index.php");
    /// ```
    pub fn new(host: impl Into<String>, path: impl Into<String>) -> Self {
        let mut path = path.into();
        if !path.starts_with('/') {
            path.insert(0, '/');
        }
        Url {
            scheme: "http".to_owned(),
            host: host.into(),
            path,
            query: Vec::new(),
            normalized: OnceLock::new(),
        }
    }

    /// Returns a copy of this URL with `key=value` appended to the query.
    #[must_use]
    pub fn with_query(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.query.push((key.into(), value.into()));
        self.normalized = OnceLock::new();
        self
    }

    /// The URL scheme (always `http` for simulated apps).
    pub fn scheme(&self) -> &str {
        &self.scheme
    }

    /// The host component, e.g. `drupal.local`.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// The path component, always starting with `/`.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The ordered query parameters.
    pub fn query(&self) -> &[(String, String)] {
        &self.query
    }

    /// The value of the first query parameter named `key`, if any.
    pub fn query_value(&self, key: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Whether this URL points at the same host as `other`.
    ///
    /// The crawlers in the paper mark actions leading to external domains as
    /// invalid (§V-A, assumption ii); this is the check they use.
    pub fn same_origin(&self, other: &Url) -> bool {
        self.scheme == other.scheme && self.host == other.host
    }

    /// The canonical string form used for link-coverage accounting: query
    /// parameters sorted by key, duplicate parameters retained.
    ///
    /// Two links that differ only in parameter *order* denote the same
    /// resource and must count once towards link coverage, while links that
    /// differ in parameter *values* (e.g. Matomo's `module=` dispatch) must
    /// count separately.
    ///
    /// The form is computed once per `Url` value and cached, so repeated
    /// calls on a long-lived URL (e.g. one held by a cached document) are
    /// allocation-free.
    pub fn normalized(&self) -> &str {
        self.normalized.get_or_init(|| {
            let mut q = self.query.clone();
            q.sort();
            let mut out = format!("{}://{}{}", self.scheme, self.host, self.path);
            for (i, (k, v)) in q.iter().enumerate() {
                out.push(if i == 0 { '?' } else { '&' });
                out.push_str(k);
                out.push('=');
                out.push_str(v);
            }
            out.into_boxed_str()
        })
    }

    /// Resolves `href` against this URL, as a browser would.
    ///
    /// Absolute URLs are parsed as-is; path-absolute references (`/x`) keep
    /// the host; other references are treated as relative to the current
    /// path's directory.
    ///
    /// # Errors
    ///
    /// Returns [`ParseUrlError`] if `href` is absolute and malformed.
    pub fn join(&self, href: &str) -> Result<Url, ParseUrlError> {
        if href.contains("://") {
            return href.parse();
        }
        let (path_part, query_part) = match href.split_once('?') {
            Some((p, q)) => (p, Some(q)),
            None => (href, None),
        };
        let path = if path_part.starts_with('/') {
            path_part.to_owned()
        } else if path_part.is_empty() {
            self.path.clone()
        } else {
            let dir = match self.path.rfind('/') {
                Some(idx) => &self.path[..=idx],
                None => "/",
            };
            format!("{dir}{path_part}")
        };
        let mut url = Url::new(self.host.clone(), path);
        url.scheme = self.scheme.clone();
        if let Some(q) = query_part {
            url.query = parse_query(q);
        }
        Ok(url)
    }
}

fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_owned(), v.to_owned()),
            None => (kv.to_owned(), String::new()),
        })
        .collect()
}

impl std::str::FromStr for Url {
    type Err = ParseUrlError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = |reason| ParseUrlError { input: s.to_owned(), reason };
        let rest =
            s.strip_prefix("http://").ok_or_else(|| err("only http:// URLs are supported"))?;
        if rest.is_empty() {
            return Err(err("missing host"));
        }
        let (host, tail) = match rest.find(['/', '?']) {
            Some(idx) => (&rest[..idx], &rest[idx..]),
            None => (rest, ""),
        };
        if host.is_empty() {
            return Err(err("missing host"));
        }
        let (path, query) = match tail.split_once('?') {
            Some((p, q)) => (p, parse_query(q)),
            None => (tail, Vec::new()),
        };
        let path = if path.is_empty() { "/".to_owned() } else { path.to_owned() };
        Ok(Url {
            scheme: "http".to_owned(),
            host: host.to_owned(),
            path,
            query,
            normalized: OnceLock::new(),
        })
    }
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}://{}{}", self.scheme, self.host, self.path)?;
        for (i, (k, v)) in self.query.iter().enumerate() {
            write!(f, "{}{k}={v}", if i == 0 { '?' } else { '&' })?;
        }
        Ok(())
    }
}

impl From<Url> for String {
    fn from(url: Url) -> Self {
        url.to_string()
    }
}

impl TryFrom<String> for Url {
    type Error = ParseUrlError;

    fn try_from(s: String) -> Result<Self, ParseUrlError> {
        s.parse()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        let s = "http://app.local/index.php?module=CoreAdminHome&action=index";
        let url: Url = s.parse().unwrap();
        assert_eq!(url.to_string(), s);
        assert_eq!(url.host(), "app.local");
        assert_eq!(url.path(), "/index.php");
        assert_eq!(url.query_value("module"), Some("CoreAdminHome"));
    }

    #[test]
    fn parse_host_only() {
        let url: Url = "http://app.local".parse().unwrap();
        assert_eq!(url.path(), "/");
        assert!(url.query().is_empty());
    }

    #[test]
    fn parse_rejects_non_http() {
        assert!("https://x/".parse::<Url>().is_err());
        assert!("ftp://x/".parse::<Url>().is_err());
        assert!("not a url".parse::<Url>().is_err());
        assert!("http://".parse::<Url>().is_err());
    }

    #[test]
    fn query_without_value() {
        let url: Url = "http://h/p?flag&x=1".parse().unwrap();
        assert_eq!(url.query_value("flag"), Some(""));
        assert_eq!(url.query_value("x"), Some("1"));
        assert_eq!(url.query_value("missing"), None);
    }

    #[test]
    fn normalized_sorts_query_keys() {
        let a: Url = "http://h/p?b=2&a=1".parse().unwrap();
        let b: Url = "http://h/p?a=1&b=2".parse().unwrap();
        assert_ne!(a, b, "exact matching distinguishes parameter order");
        assert_eq!(a.normalized(), b.normalized());
    }

    #[test]
    fn normalized_distinguishes_values() {
        let a: Url = "http://h/index.php?module=CoreAdminHome".parse().unwrap();
        let b: Url = "http://h/index.php?module=MultiSites".parse().unwrap();
        assert_ne!(a.normalized(), b.normalized());
    }

    #[test]
    fn join_absolute() {
        let base: Url = "http://h/a/b".parse().unwrap();
        let joined = base.join("http://other/x").unwrap();
        assert_eq!(joined.host(), "other");
    }

    #[test]
    fn join_path_absolute_keeps_host() {
        let base: Url = "http://h/a/b?q=1".parse().unwrap();
        let joined = base.join("/c?x=2").unwrap();
        assert_eq!(joined.to_string(), "http://h/c?x=2");
    }

    #[test]
    fn join_relative_uses_directory() {
        let base: Url = "http://h/dir/page.php".parse().unwrap();
        let joined = base.join("other.php?a=1").unwrap();
        assert_eq!(joined.to_string(), "http://h/dir/other.php?a=1");
    }

    #[test]
    fn join_empty_keeps_path() {
        let base: Url = "http://h/dir/page.php".parse().unwrap();
        let joined = base.join("?a=1").unwrap();
        assert_eq!(joined.to_string(), "http://h/dir/page.php?a=1");
    }

    #[test]
    fn same_origin_checks_host() {
        let a: Url = "http://h/a".parse().unwrap();
        let b: Url = "http://h/b?x=1".parse().unwrap();
        let c: Url = "http://external.example/a".parse().unwrap();
        assert!(a.same_origin(&b));
        assert!(!a.same_origin(&c));
    }

    #[test]
    fn with_query_appends_in_order() {
        let url = Url::new("h", "p").with_query("a", "1").with_query("b", "2");
        assert_eq!(url.to_string(), "http://h/p?a=1&b=2");
    }

    #[test]
    fn display_never_empty() {
        let url = Url::new("h", "/");
        assert_eq!(url.to_string(), "http://h/");
    }
}
