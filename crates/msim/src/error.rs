use std::fmt;

/// Error type for simulation failures.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// An integrator produced a non-finite state value.
    NonFiniteState {
        /// Simulation time at which the blow-up was detected.
        time: f64,
    },
    /// A Newton iteration failed to converge.
    NewtonDiverged {
        /// Iterations performed before giving up.
        iterations: usize,
        /// Residual norm at the final iterate.
        residual: f64,
    },
    /// The Newton Jacobian was singular.
    SingularJacobian,
    /// Invalid configuration or argument.
    InvalidArgument(&'static str),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NonFiniteState { time } => {
                write!(f, "non-finite analogue state at t = {time}")
            }
            SimError::NewtonDiverged {
                iterations,
                residual,
            } => write!(
                f,
                "newton iteration diverged after {iterations} iterations (residual {residual:e})"
            ),
            SimError::SingularJacobian => write!(f, "singular jacobian in newton iteration"),
            SimError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::NonFiniteState { time: 1.5 };
        assert!(e.to_string().contains("1.5"));
        let e = SimError::InvalidArgument("run_until: t_end in the past");
        assert!(e.to_string().contains("past"));
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync + std::error::Error>() {}
        check::<SimError>();
    }
}
