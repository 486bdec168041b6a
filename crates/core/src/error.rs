use std::fmt;

/// Error type for the design-space-exploration flow.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DseError {
    /// A design-of-experiments failure.
    Doe(doe::DoeError),
    /// A response-surface fitting failure.
    Rsm(rsm::RsmError),
    /// An optimiser failure.
    Optim(optim::OptimError),
    /// A simulation/configuration failure.
    Node(wsn_node::NodeError),
    /// An invalid argument to the flow itself.
    InvalidArgument(&'static str),
    /// An objective selection names an objective the flow does not
    /// have.
    UnknownObjective {
        /// The name given.
        name: String,
        /// The objective names the flow has.
        known: Vec<&'static str>,
    },
    /// An evaluation closure panicked inside a pool worker; the payload
    /// is the panic message. Produced by the fault-tolerant batch mode
    /// (see [`crate::SimPool::evaluate_batch_partial`]), which converts
    /// worker panics into errors instead of tearing the batch down.
    EvalPanicked(String),
    /// An evaluation exceeded its per-evaluation wall-clock budget (see
    /// [`crate::SimPool::eval_deadline`]) and was abandoned. Carried in
    /// [`crate::BatchReport::failures`]; timed-out keys are never cached,
    /// so a later batch (or a longer budget) re-attempts them.
    EvalTimedOut {
        /// The budget that was exceeded.
        budget: std::time::Duration,
    },
}

impl fmt::Display for DseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DseError::Doe(e) => write!(f, "design of experiments failed: {e}"),
            DseError::Rsm(e) => write!(f, "response surface fit failed: {e}"),
            DseError::Optim(e) => write!(f, "optimisation failed: {e}"),
            DseError::Node(e) => write!(f, "simulation failed: {e}"),
            DseError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            DseError::UnknownObjective { name, known } => {
                write!(f, "unknown objective {name:?}; known: {}", known.join(", "))
            }
            DseError::EvalPanicked(msg) => write!(f, "evaluation panicked: {msg}"),
            DseError::EvalTimedOut { budget } => {
                write!(
                    f,
                    "evaluation exceeded its {} ms wall-clock budget",
                    budget.as_millis()
                )
            }
        }
    }
}

impl std::error::Error for DseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DseError::Doe(e) => Some(e),
            DseError::Rsm(e) => Some(e),
            DseError::Optim(e) => Some(e),
            DseError::Node(e) => Some(e),
            DseError::InvalidArgument(_) => None,
            DseError::UnknownObjective { .. } => None,
            DseError::EvalPanicked(_) => None,
            DseError::EvalTimedOut { .. } => None,
        }
    }
}

impl From<doe::DoeError> for DseError {
    fn from(e: doe::DoeError) -> Self {
        DseError::Doe(e)
    }
}

impl From<rsm::RsmError> for DseError {
    fn from(e: rsm::RsmError) -> Self {
        DseError::Rsm(e)
    }
}

impl From<optim::OptimError> for DseError {
    fn from(e: optim::OptimError) -> Self {
        DseError::Optim(e)
    }
}

impl From<wsn_node::NodeError> for DseError {
    fn from(e: wsn_node::NodeError) -> Self {
        DseError::Node(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_sources() {
        let e: DseError = doe::DoeError::InvalidArgument("x").into();
        assert!(std::error::Error::source(&e).is_some());
        let e: DseError = optim::OptimError::InvalidBounds("y").into();
        assert!(e.to_string().contains("optimisation"));
        let e = DseError::InvalidArgument("z");
        assert!(std::error::Error::source(&e).is_none());
    }
}
