/// A continuous-time dynamical system `dx/dt = f(t, x)`.
///
/// Implementors describe the analogue half of a mixed-signal model: the
/// microgenerator mechanics, the rectifier/storage network, or any other
/// lumped continuous dynamics. The state vector layout is owned by the
/// implementor; the integrator only needs [`dim`](OdeSystem::dim) and
/// [`derivatives`](OdeSystem::derivatives).
///
/// # Example
///
/// ```
/// use msim::OdeSystem;
///
/// /// Harmonic oscillator: x'' = -ω² x, state = [x, x'].
/// struct Oscillator {
///     omega: f64,
/// }
///
/// impl OdeSystem for Oscillator {
///     fn dim(&self) -> usize { 2 }
///     fn derivatives(&self, _t: f64, x: &[f64], dxdt: &mut [f64]) {
///         dxdt[0] = x[1];
///         dxdt[1] = -self.omega * self.omega * x[0];
///     }
/// }
/// ```
pub trait OdeSystem {
    /// Dimension of the state vector.
    fn dim(&self) -> usize;

    /// Writes `f(t, x)` into `dxdt`.
    ///
    /// Implementations must not read `dxdt`; it may contain stale data.
    fn derivatives(&self, t: f64, x: &[f64], dxdt: &mut [f64]);
}
