//! Workspace-wide error type.

use std::fmt;

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, GsjError>;

/// Errors produced anywhere in the `gsj` workspace.
///
/// A single enum keeps cross-crate plumbing simple: the relational engine,
/// the gSQL front end and the extraction pipeline all surface through the
/// same type, and integration code can match on the variant it cares about.
///
/// The enum is `#[non_exhaustive]`: downstream matches must carry a
/// wildcard arm, so governance variants can grow without breaking them.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GsjError {
    /// A schema was malformed or two schemas were incompatible
    /// (duplicate attribute, arity mismatch, unknown attribute, ...).
    Schema(String),
    /// A query referenced a relation, graph or attribute that does not
    /// exist in the catalog.
    NotFound(String),
    /// The gSQL text failed to lex or parse.
    Parse(String),
    /// A gSQL query type-checked but cannot be executed under the requested
    /// strategy (e.g. a static rewrite was requested for a non-well-behaved
    /// join).
    Unsupported(String),
    /// A runtime evaluation error (type mismatch in an expression,
    /// division by zero, ...).
    Eval(String),
    /// Invalid configuration (zero clusters, zero path bound, ...).
    Config(String),
    /// The query was cancelled cooperatively (its governor's cancel flag
    /// was raised). See DESIGN.md §11.
    Cancelled,
    /// The query ran past its governor's deadline. The message names the
    /// stage that noticed, so overruns are attributable.
    DeadlineExceeded(String),
    /// A governor budget (rows produced, estimated memory) was exhausted,
    /// or a transient resource failure was injected. Retryable: a later
    /// attempt under lighter load (or a larger budget) may succeed.
    ResourceExhausted(String),
    /// An internal failure: an injected fault, or a panic caught at the
    /// `run_query` boundary and converted into a typed error. Retryable:
    /// these are transient by construction (fault injection) or bugs whose
    /// blast radius the engine deliberately contains.
    Internal(String),
}

/// The message carried by a caught panic (`catch_unwind`'s payload), so
/// every containment boundary words a contained panic the same way.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

impl GsjError {
    /// Would retrying the same operation plausibly succeed?
    ///
    /// `ResourceExhausted` and `Internal` are transient-by-contract:
    /// budget pressure eases, injected faults are probabilistic, and a
    /// contained panic is retried in case it raced. Everything else is
    /// deterministic (bad query, bad config, cancelled, out of time) —
    /// retrying burns the caller's deadline for nothing.
    pub fn retryable(&self) -> bool {
        matches!(self, GsjError::ResourceExhausted(_) | GsjError::Internal(_))
    }

    /// Is this a governance verdict that must propagate unchanged?
    ///
    /// Strategy fallback chains degrade on [`retryable`](Self::retryable)
    /// errors but never on these: a cancelled or out-of-time query must
    /// stop, not try a cheaper plan.
    pub fn is_governance(&self) -> bool {
        matches!(self, GsjError::Cancelled | GsjError::DeadlineExceeded(_))
    }

    /// Stable wire code for this variant — what the server protocol puts
    /// in an error frame's `code` header. Round-trips through
    /// [`from_wire`](Self::from_wire).
    pub fn code(&self) -> &'static str {
        match self {
            GsjError::Schema(_) => "Schema",
            GsjError::NotFound(_) => "NotFound",
            GsjError::Parse(_) => "Parse",
            GsjError::Unsupported(_) => "Unsupported",
            GsjError::Eval(_) => "Eval",
            GsjError::Config(_) => "Config",
            GsjError::Cancelled => "Cancelled",
            GsjError::DeadlineExceeded(_) => "DeadlineExceeded",
            GsjError::ResourceExhausted(_) => "ResourceExhausted",
            GsjError::Internal(_) => "Internal",
        }
    }

    /// Rebuild an error from a wire `(code, message)` pair, so clients
    /// get back the same typed variant (and `retryable()` /
    /// `is_governance()` verdicts) the server computed. Unknown codes —
    /// a newer server talking to an older client — land on `Internal`,
    /// which is the conservative (retryable, non-governance) bucket.
    pub fn from_wire(code: &str, message: &str) -> Self {
        let m = message.to_string();
        match code {
            "Schema" => GsjError::Schema(m),
            "NotFound" => GsjError::NotFound(m),
            "Parse" => GsjError::Parse(m),
            "Unsupported" => GsjError::Unsupported(m),
            "Eval" => GsjError::Eval(m),
            "Config" => GsjError::Config(m),
            "Cancelled" => GsjError::Cancelled,
            "DeadlineExceeded" => GsjError::DeadlineExceeded(m),
            "ResourceExhausted" => GsjError::ResourceExhausted(m),
            _ => GsjError::Internal(m),
        }
    }
}

impl fmt::Display for GsjError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GsjError::Schema(m) => write!(f, "schema error: {m}"),
            GsjError::NotFound(m) => write!(f, "not found: {m}"),
            GsjError::Parse(m) => write!(f, "parse error: {m}"),
            GsjError::Unsupported(m) => write!(f, "unsupported: {m}"),
            GsjError::Eval(m) => write!(f, "evaluation error: {m}"),
            GsjError::Config(m) => write!(f, "configuration error: {m}"),
            GsjError::Cancelled => write!(f, "cancelled"),
            GsjError::DeadlineExceeded(m) => write!(f, "deadline exceeded: {m}"),
            GsjError::ResourceExhausted(m) => write!(f, "resource exhausted: {m}"),
            GsjError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for GsjError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_category_and_message() {
        let e = GsjError::Parse("unexpected token".into());
        assert_eq!(e.to_string(), "parse error: unexpected token");
        let e = GsjError::NotFound("relation `product`".into());
        assert_eq!(e.to_string(), "not found: relation `product`");
        let e = GsjError::DeadlineExceeded("Filter".into());
        assert_eq!(e.to_string(), "deadline exceeded: Filter");
        assert_eq!(GsjError::Cancelled.to_string(), "cancelled");
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(GsjError::Schema("x".into()), GsjError::Schema("x".into()));
        assert_ne!(GsjError::Schema("x".into()), GsjError::Eval("x".into()));
    }

    #[test]
    fn retryable_classifies_transient_variants_only() {
        assert!(GsjError::ResourceExhausted("rows".into()).retryable());
        assert!(GsjError::Internal("injected fault".into()).retryable());
        for e in [
            GsjError::Schema("x".into()),
            GsjError::NotFound("x".into()),
            GsjError::Parse("x".into()),
            GsjError::Unsupported("x".into()),
            GsjError::Eval("x".into()),
            GsjError::Config("x".into()),
            GsjError::Cancelled,
            GsjError::DeadlineExceeded("x".into()),
        ] {
            assert!(!e.retryable(), "{e} must not be retryable");
        }
    }

    #[test]
    fn wire_codes_round_trip_every_variant() {
        let all = [
            GsjError::Schema("a".into()),
            GsjError::NotFound("b".into()),
            GsjError::Parse("c".into()),
            GsjError::Unsupported("d".into()),
            GsjError::Eval("e".into()),
            GsjError::Config("f".into()),
            GsjError::Cancelled,
            GsjError::DeadlineExceeded("g".into()),
            GsjError::ResourceExhausted("h".into()),
            GsjError::Internal("i".into()),
        ];
        for e in all {
            let back = GsjError::from_wire(
                e.code(),
                match &e {
                    GsjError::Cancelled => "",
                    GsjError::Schema(m)
                    | GsjError::NotFound(m)
                    | GsjError::Parse(m)
                    | GsjError::Unsupported(m)
                    | GsjError::Eval(m)
                    | GsjError::Config(m)
                    | GsjError::DeadlineExceeded(m)
                    | GsjError::ResourceExhausted(m)
                    | GsjError::Internal(m) => m,
                },
            );
            assert_eq!(back, e, "code {} must round-trip", e.code());
            assert_eq!(back.retryable(), e.retryable());
            assert_eq!(back.is_governance(), e.is_governance());
        }
        // Unknown codes degrade to the conservative bucket.
        let unknown = GsjError::from_wire("FutureVariant", "msg");
        assert!(matches!(unknown, GsjError::Internal(_)));
    }

    #[test]
    fn governance_verdicts_are_terminal() {
        assert!(GsjError::Cancelled.is_governance());
        assert!(GsjError::DeadlineExceeded("op".into()).is_governance());
        assert!(!GsjError::Internal("x".into()).is_governance());
        assert!(!GsjError::ResourceExhausted("x".into()).is_governance());
        // Governance verdicts are by definition not retryable.
        assert!(!GsjError::Cancelled.retryable());
    }
}
