//! HTTP header wire formats.
//!
//! The simulator's [`Request`] and [`Response`] carry their session as a
//! typed field; real traffic carries it in `Cookie` / `Set-Cookie`
//! headers. This module provides the translation — what an HTTP recorder
//! or proxy in front of the testbed would emit and parse — plus minimal
//! header-block rendering for request/response logging.

use crate::http::{Method, Request, Response, SessionId, Status};
use std::fmt::Write as _;

/// The cookie name carrying the session id, mirroring PHP's default.
pub const SESSION_COOKIE: &str = "PHPSESSID";

/// Formats a `Set-Cookie` header value for a session.
pub fn set_cookie(session: SessionId) -> String {
    format!("{SESSION_COOKIE}={session}; Path=/; HttpOnly")
}

/// Formats the `Cookie` request header for a session.
pub fn cookie(session: SessionId) -> String {
    format!("{SESSION_COOKIE}={session}")
}

/// Parses a session id out of a `Cookie` header value, tolerating other
/// cookies around it. Returns `None` if the session cookie is absent or
/// malformed.
pub fn parse_cookie(header: &str) -> Option<SessionId> {
    for pair in header.split(';') {
        let pair = pair.trim();
        if let Some(value) = pair.strip_prefix(SESSION_COOKIE).and_then(|r| r.strip_prefix('=')) {
            // Format produced by Display: `sess-<16 hex digits>`.
            let hex = value.strip_prefix("sess-")?;
            if hex.len() != 16 {
                return None;
            }
            return u64::from_str_radix(hex, 16).ok().map(SessionId::from_raw);
        }
    }
    None
}

/// Renders a request as an HTTP/1.1 message head (request line + headers +
/// form body for POSTs) — the traffic a recording proxy would log.
pub fn render_request(req: &Request) -> String {
    let mut out = String::new();
    let path_and_query = {
        let full = req.url.to_string();
        let after_scheme = full.splitn(4, '/').nth(3).map(|p| format!("/{p}"));
        after_scheme.unwrap_or_else(|| "/".to_owned())
    };
    let _ = writeln!(out, "{} {} HTTP/1.1", req.method, path_and_query);
    let _ = writeln!(out, "Host: {}", req.url.host());
    if let Some(session) = req.session {
        let _ = writeln!(out, "Cookie: {}", cookie(session));
    }
    if req.method == Method::Post {
        let body: Vec<String> =
            req.form.iter().map(|(k, v)| format!("{k}={}", urlencode(v))).collect();
        let body = body.join("&");
        let _ = writeln!(out, "Content-Type: application/x-www-form-urlencoded");
        let _ = writeln!(out, "Content-Length: {}", body.len());
        let _ = writeln!(out);
        out.push_str(&body);
    }
    out
}

/// Renders a response head (status line + headers) with the HTML body.
pub fn render_response(resp: &Response) -> String {
    let mut out = String::new();
    let reason = match resp.status {
        Status::Ok => "OK",
        Status::Found => "Found",
        Status::NotFound => "Not Found",
        Status::ServerError => "Internal Server Error",
    };
    let _ = writeln!(out, "HTTP/1.1 {} {reason}", resp.status.code());
    if let Some(session) = resp.session {
        let _ = writeln!(out, "Set-Cookie: {}", set_cookie(session));
    }
    match &resp.body {
        crate::http::Body::Html(doc) => {
            let html = doc.to_html();
            let _ = writeln!(out, "Content-Type: text/html; charset=utf-8");
            let _ = writeln!(out, "Content-Length: {}", html.len());
            let _ = writeln!(out);
            out.push_str(&html);
        }
        crate::http::Body::Redirect(location) => {
            let _ = writeln!(out, "Location: {location}");
        }
        crate::http::Body::Empty => {
            let _ = writeln!(out, "Content-Length: 0");
        }
    }
    out
}

fn urlencode(s: &str) -> String {
    let mut out = String::new();
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char);
            }
            b' ' => out.push('+'),
            other => {
                let _ = write!(out, "%{other:02X}");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps;
    use crate::server::AppHost;

    #[test]
    fn cookie_roundtrips() {
        let sid = SessionId::from_raw(0xdead_beef);
        let header = cookie(sid);
        assert_eq!(parse_cookie(&header), Some(sid));
        // Tolerates surrounding cookies.
        let messy = format!("theme=dark; {header} ; lang=en");
        assert_eq!(parse_cookie(&messy), Some(sid));
    }

    #[test]
    fn parse_cookie_rejects_garbage() {
        assert_eq!(parse_cookie(""), None);
        assert_eq!(parse_cookie("theme=dark"), None);
        assert_eq!(parse_cookie(&format!("{SESSION_COOKIE}=not-a-session")), None);
        assert_eq!(parse_cookie(&format!("{SESSION_COOKIE}=sess-zz")), None);
    }

    #[test]
    fn set_cookie_is_httponly() {
        let header = set_cookie(SessionId::from_raw(1));
        assert!(header.contains("HttpOnly"));
        assert!(header.starts_with(SESSION_COOKIE));
    }

    #[test]
    fn urlencode_escapes_reserved() {
        assert_eq!(urlencode("a b&c=d"), "a+b%26c%3Dd");
        assert_eq!(urlencode("safe-._~"), "safe-._~");
    }

    #[test]
    fn renders_a_realistic_exchange() {
        let mut host = AppHost::new(apps::build("phpbb2").unwrap());
        let mut req = Request::post(
            "http://phpbb.local/post".parse().unwrap(),
            vec![("title".into(), "hello world".into())],
        );
        let resp = host.fetch(&req);
        req.session = resp.session;

        let req_text = render_request(&req);
        assert!(req_text.starts_with("POST /post HTTP/1.1"));
        assert!(req_text.contains("Host: phpbb.local"));
        assert!(req_text.contains("Cookie: PHPSESSID=sess-"));
        assert!(req_text.contains("title=hello+world"));

        let resp_text = render_response(&resp);
        assert!(resp_text.starts_with("HTTP/1.1 200 OK"));
        assert!(resp_text.contains("Set-Cookie: PHPSESSID=sess-"));
        assert!(resp_text.contains("Content-Type: text/html"));
        assert!(resp_text.contains("<!DOCTYPE html>"));
    }

    #[test]
    fn renders_redirects_with_location() {
        let resp = Response::redirect("http://h/target".parse().unwrap());
        let text = render_response(&resp);
        assert!(text.starts_with("HTTP/1.1 302 Found"));
        assert!(text.contains("Location: http://h/target"));
    }
}
