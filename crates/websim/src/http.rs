//! Minimal HTTP request/response types for the simulator.
//!
//! The crawlers interact with applications exclusively through these types;
//! they are the "HTTP traffic" of the paper's black-box setting (§I).

use crate::dom::Document;
use crate::url::Url;
use serde::{Deserialize, Serialize};
use std::fmt;

/// HTTP method. The simulated apps only use `GET` and `POST`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Method {
    /// Safe, idempotent retrieval.
    #[default]
    Get,
    /// State-changing submission.
    Post,
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Method::Get => "GET",
            Method::Post => "POST",
        })
    }
}

/// An HTTP request from the crawler to a simulated application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Target URL (same-origin with the app under test).
    pub url: Url,
    /// Form body for `POST` (or extra query-style data for `GET` submits).
    pub form: Vec<(String, String)>,
    /// Session cookie, if the client has one.
    pub session: Option<SessionId>,
}

impl Request {
    /// A plain `GET` with no body.
    pub fn get(url: Url) -> Self {
        Request { method: Method::Get, url, form: Vec::new(), session: None }
    }

    /// A `POST` with the given form body.
    pub fn post(url: Url, form: Vec<(String, String)>) -> Self {
        Request { method: Method::Post, url, form, session: None }
    }

    /// Returns the first form value named `key`, if any.
    pub fn form_value(&self, key: &str) -> Option<&str> {
        self.form.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Returns a query parameter, falling back to the form body — matching
    /// PHP's `$_REQUEST` lookup the modeled applications rely on.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.url.query_value(key).or_else(|| self.form_value(key))
    }
}

/// Opaque session identifier carried in the cookie.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SessionId(pub(crate) u64);

impl SessionId {
    /// Reconstructs a session id from its raw value — for wire-format
    /// parsing ([`crate::headers`]) and tests. Server-side allocation goes
    /// through [`SessionStore`](crate::session::SessionStore).
    pub fn from_raw(raw: u64) -> Self {
        SessionId(raw)
    }
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sess-{:016x}", self.0)
    }
}

/// HTTP status code subset used by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Status {
    /// 200.
    Ok,
    /// 302, with a `Location`.
    Found,
    /// 404.
    NotFound,
    /// 500.
    ServerError,
}

impl Status {
    /// The numeric code.
    pub fn code(self) -> u16 {
        match self {
            Status::Ok => 200,
            Status::Found => 302,
            Status::NotFound => 404,
            Status::ServerError => 500,
        }
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// The payload of a [`Response`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Body {
    /// A rendered HTML document.
    Html(Document),
    /// A redirect to another URL (status [`Status::Found`]).
    Redirect(Url),
    /// An empty body (error statuses).
    Empty,
}

/// An HTTP response from a simulated application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: Status,
    /// Response payload.
    pub body: Body,
    /// Session cookie set by the server (always echoed once established).
    pub session: Option<SessionId>,
}

impl Response {
    /// A `200 OK` HTML page.
    pub fn html(doc: Document) -> Self {
        Response { status: Status::Ok, body: Body::Html(doc), session: None }
    }

    /// A `302 Found` redirect.
    pub fn redirect(to: Url) -> Self {
        Response { status: Status::Found, body: Body::Redirect(to), session: None }
    }

    /// A `404 Not Found` with empty body.
    pub fn not_found() -> Self {
        Response { status: Status::NotFound, body: Body::Empty, session: None }
    }

    /// The document, if this is a successful HTML response.
    pub fn document(&self) -> Option<&Document> {
        match &self.body {
            Body::Html(doc) => Some(doc),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom::{Element, Tag};

    #[test]
    fn request_param_prefers_query_over_form() {
        let url: Url = "http://h/p?x=query".parse().unwrap();
        let req = Request::post(url, vec![("x".into(), "form".into()), ("y".into(), "2".into())]);
        assert_eq!(req.param("x"), Some("query"));
        assert_eq!(req.param("y"), Some("2"));
        assert_eq!(req.param("z"), None);
    }

    #[test]
    fn status_codes() {
        assert_eq!(Status::Ok.code(), 200);
        assert_eq!(Status::Found.code(), 302);
        assert_eq!(Status::NotFound.code(), 404);
        assert_eq!(Status::ServerError.code(), 500);
    }

    #[test]
    fn response_document_accessor() {
        let doc = Document::new("http://h/".parse().unwrap(), "t", Element::new(Tag::Body));
        let resp = Response::html(doc);
        assert!(resp.document().is_some());
        assert!(Response::not_found().document().is_none());
        assert!(Response::redirect("http://h/x".parse().unwrap()).document().is_none());
    }

    #[test]
    fn session_id_display_is_stable() {
        assert_eq!(SessionId(7).to_string(), "sess-0000000000000007");
    }
}
