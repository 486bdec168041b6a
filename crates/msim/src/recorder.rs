/// One sample of the analogue state.
#[derive(Debug, Clone, PartialEq)]
pub struct TracePoint {
    /// Simulation time of the sample.
    pub time: f64,
    /// Copy of the analogue state vector at `time`.
    pub state: Vec<f64>,
}

/// A time-ordered sequence of analogue state samples.
///
/// Produced by [`crate::MixedSim::record_every`]; this is how the
/// supercapacitor-voltage waveforms of the paper's Fig. 5 are captured.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    points: Vec<TracePoint>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends a sample. Samples must be pushed in non-decreasing time
    /// order; this is enforced with a debug assertion.
    pub fn push(&mut self, time: f64, state: &[f64]) {
        debug_assert!(
            self.points.last().is_none_or(|p| p.time <= time),
            "trace samples must be time-ordered"
        );
        self.points.push(TracePoint {
            time,
            state: state.to_vec(),
        });
    }

    /// All samples in time order.
    pub fn points(&self) -> &[TracePoint] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` if no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_extract() {
        let mut tr = Trace::new();
        assert!(tr.is_empty());
        tr.push(0.0, &[1.0, 10.0]);
        tr.push(1.0, &[2.0, 20.0]);
        assert_eq!(tr.len(), 2);
        assert_eq!(tr.points()[1].time, 1.0);
        assert_eq!(tr.points()[1].state, vec![2.0, 20.0]);
    }
}
