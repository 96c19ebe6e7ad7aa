//! The unified top-level error of the `weblab` façade.
//!
//! Every subsystem error funnels into [`WebLabError`] through `From`
//! impls, and each variant carries a **stable machine-readable code**
//! ([`WebLabError::code`]) — the `code` field of the serve protocol's
//! error responses and the `error[{code}]:` prefix the CLI prints. Codes
//! are part of the wire contract: clients match on them, so they never
//! change even when the human-readable messages do.

use std::fmt;

use weblab_platform::persist::PersistError;
use weblab_platform::PlatformError;
use weblab_rdf::SparqlError;

/// Top-level failure of any `weblab` entry point (CLI command or serve
/// request).
#[derive(Debug)]
pub enum WebLabError {
    /// A platform operation failed (execution, materialisation, catalog…).
    Platform(PlatformError),
    /// Persistence (checkpoint/link-store/trace files) failed.
    Persist(PersistError),
    /// An XML document failed to parse.
    Xml(weblab_xml::Error),
    /// A SPARQL query failed to parse.
    Sparql(SparqlError),
    /// A filesystem operation failed; `context` names what was attempted.
    Io {
        /// What was being done, e.g. `reading corpus.xml`.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A SPARQL result exceeded the daemon's configured row cap.
    ResultLimit {
        /// Rows the query produced.
        rows: usize,
        /// The configured cap (`--max-rows`).
        max: usize,
    },
    /// A `batch` request carried more sub-requests than the daemon allows.
    BatchLimit {
        /// Sub-requests the batch carried.
        size: usize,
        /// The configured cap (`--max-batch`).
        max: usize,
    },
    /// The daemon shed this request under overload (admission control).
    Overloaded {
        /// Requests already queued or in flight when this one arrived.
        depth: usize,
        /// The configured queue-depth cap.
        cap: usize,
    },
    /// A protocol line exceeded the maximum line length.
    LineLimit {
        /// The configured cap in bytes (`Server::max_line`).
        max: usize,
    },
    /// The connection sat idle past the read timeout.
    IdleTimeout {
        /// The configured timeout, in milliseconds.
        millis: u64,
    },
    /// A serve request was malformed (bad JSON, missing field, unknown op).
    Protocol(String),
    /// A serve request's dispatch panicked; carries the panic message.
    Internal(String),
    /// The command line was malformed.
    Usage(String),
}

impl WebLabError {
    /// Attach a context string to an I/O error.
    pub fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        WebLabError::Io {
            context: context.into(),
            source,
        }
    }

    /// The stable machine-readable code of this error — what the serve
    /// protocol puts in the `code` field.
    pub fn code(&self) -> &'static str {
        match self {
            WebLabError::Platform(PlatformError::UnknownExecution(_)) => "unknown-execution",
            WebLabError::Platform(PlatformError::UnknownService(_)) => "unknown-service",
            WebLabError::Platform(PlatformError::Catalog(_)) => "catalog",
            WebLabError::Platform(PlatformError::Workflow(_)) => "workflow",
            WebLabError::Platform(PlatformError::Recorder(_)) => "recorder",
            WebLabError::Platform(PlatformError::Mapper(_)) => "mapper",
            WebLabError::Platform(PlatformError::Sparql(_)) | WebLabError::Sparql(_) => "sparql",
            WebLabError::Persist(PersistError::StoreLocked { .. })
            | WebLabError::Platform(PlatformError::Store(PersistError::StoreLocked {
                ..
            })) => "store-locked",
            WebLabError::Platform(PlatformError::Store(_)) => "store",
            WebLabError::Persist(_) => "persist",
            WebLabError::Xml(_) => "xml",
            WebLabError::Io { .. } => "io",
            WebLabError::ResultLimit { .. } => "result-limit",
            WebLabError::BatchLimit { .. } => "batch-limit",
            WebLabError::Overloaded { .. } => "overloaded",
            WebLabError::LineLimit { .. } => "line-limit",
            WebLabError::IdleTimeout { .. } => "idle-timeout",
            WebLabError::Protocol(_) => "protocol",
            WebLabError::Internal(_) => "internal",
            WebLabError::Usage(_) => "usage",
        }
    }
}

impl fmt::Display for WebLabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WebLabError::Platform(e) => write!(f, "{e}"),
            WebLabError::Persist(e) => write!(f, "{e}"),
            WebLabError::Xml(e) => write!(f, "{e}"),
            WebLabError::Sparql(e) => write!(f, "{e}"),
            WebLabError::Io { context, source } => write!(f, "{context}: {source}"),
            WebLabError::ResultLimit { rows, max } => write!(
                f,
                "sparql result has {rows} rows, over the {max}-row cap; \
                 add a LIMIT or raise --max-rows"
            ),
            WebLabError::BatchLimit { size, max } => write!(
                f,
                "batch carries {size} sub-requests, over the {max}-request cap; \
                 split the batch or raise --max-batch"
            ),
            WebLabError::Overloaded { depth, cap } => write!(
                f,
                "request shed: {depth} requests already queued (cap {cap}); retry later"
            ),
            WebLabError::LineLimit { max } => write!(
                f,
                "request line exceeds the {max}-byte limit"
            ),
            WebLabError::IdleTimeout { millis } => write!(
                f,
                "connection idle past the {millis} ms read timeout"
            ),
            WebLabError::Protocol(m) => write!(f, "{m}"),
            WebLabError::Internal(m) => {
                write!(f, "internal error: request handler panicked: {m}")
            }
            WebLabError::Usage(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for WebLabError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WebLabError::Platform(e) => Some(e),
            WebLabError::Persist(e) => Some(e),
            WebLabError::Xml(e) => Some(e),
            WebLabError::Sparql(e) => Some(e),
            WebLabError::Io { source, .. } => Some(source),
            WebLabError::ResultLimit { .. }
            | WebLabError::BatchLimit { .. }
            | WebLabError::Overloaded { .. }
            | WebLabError::LineLimit { .. }
            | WebLabError::IdleTimeout { .. }
            | WebLabError::Protocol(_)
            | WebLabError::Internal(_)
            | WebLabError::Usage(_) => None,
        }
    }
}

impl From<PlatformError> for WebLabError {
    fn from(e: PlatformError) -> Self {
        WebLabError::Platform(e)
    }
}

impl From<PersistError> for WebLabError {
    fn from(e: PersistError) -> Self {
        WebLabError::Persist(e)
    }
}

impl From<weblab_xml::Error> for WebLabError {
    fn from(e: weblab_xml::Error) -> Self {
        WebLabError::Xml(e)
    }
}

impl From<SparqlError> for WebLabError {
    fn from(e: SparqlError) -> Self {
        WebLabError::Sparql(e)
    }
}

impl From<weblab_workflow::WorkflowError> for WebLabError {
    fn from(e: weblab_workflow::WorkflowError) -> Self {
        WebLabError::Platform(PlatformError::Workflow(e))
    }
}

/// `&str` usage messages (`"missing value for -o"`) become [`WebLabError::Usage`].
impl From<&str> for WebLabError {
    fn from(m: &str) -> Self {
        WebLabError::Usage(m.to_string())
    }
}

/// `format!`-built usage messages become [`WebLabError::Usage`].
impl From<String> for WebLabError {
    fn from(m: String) -> Self {
        WebLabError::Usage(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_per_variant() {
        assert_eq!(
            WebLabError::from(PlatformError::UnknownExecution("e".into())).code(),
            "unknown-execution"
        );
        assert_eq!(
            WebLabError::from(PlatformError::UnknownService("s".into())).code(),
            "unknown-service"
        );
        assert_eq!(WebLabError::Protocol("bad".into()).code(), "protocol");
        assert_eq!(
            WebLabError::ResultLimit { rows: 11, max: 10 }.code(),
            "result-limit"
        );
        assert_eq!(
            WebLabError::BatchLimit { size: 9, max: 8 }.code(),
            "batch-limit"
        );
        assert_eq!(
            WebLabError::Overloaded { depth: 4, cap: 4 }.code(),
            "overloaded"
        );
        assert_eq!(WebLabError::LineLimit { max: 1024 }.code(), "line-limit");
        assert_eq!(
            WebLabError::IdleTimeout { millis: 200 }.code(),
            "idle-timeout"
        );
        assert_eq!(WebLabError::Internal("boom".into()).code(), "internal");
        assert_eq!(WebLabError::from("usage").code(), "usage");
        let locked = PersistError::StoreLocked {
            path: "/tmp/store".into(),
            pid: 7,
        };
        assert_eq!(WebLabError::from(locked).code(), "store-locked");
        let wrapped = PersistError::StoreLocked {
            path: "/tmp/store".into(),
            pid: 7,
        };
        assert_eq!(
            WebLabError::from(PlatformError::Store(wrapped)).code(),
            "store-locked"
        );
        assert_eq!(
            WebLabError::io("reading x", std::io::Error::other("boom")).code(),
            "io"
        );
    }

    #[test]
    fn sparql_code_is_shared_between_direct_and_platform_wrapped() {
        let direct = match weblab_rdf::parse_select("SELEKT") {
            Err(e) => WebLabError::from(e),
            Ok(_) => panic!("expected parse failure"),
        };
        let wrapped = match weblab_rdf::parse_select("SELEKT") {
            Err(e) => WebLabError::from(PlatformError::from(e)),
            Ok(_) => panic!("expected parse failure"),
        };
        assert_eq!(direct.code(), "sparql");
        assert_eq!(wrapped.code(), "sparql");
    }

    #[test]
    fn display_preserves_the_underlying_message() {
        let e = WebLabError::io("reading f.xml", std::io::Error::other("no such file"));
        let msg = e.to_string();
        assert!(msg.contains("reading f.xml"));
        assert!(msg.contains("no such file"));
    }
}
