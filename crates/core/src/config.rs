//! DUST configuration: the user-defined thresholds of §III-B / §IV-A.

/// The routing engine `T_rmin` is priced with: there is one, the
/// hop-bounded DP, so this selects nothing. It exists only because the
/// benchmark under `benchmark/` names it through `dust::prelude`
/// (`.with_engine(PathEngine::HopBoundedDp)`); ROADMAP item 1's
/// mechanical benchmark edit deletes it with [`DustConfig::with_engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PathEngine {
    /// Hop-bounded Bellman–Ford, the one engine.
    #[default]
    HopBoundedDp,
}

/// Threshold and routing configuration for a DUST deployment.
///
/// * `c_max` — a node whose utilized capacity `C_i ≥ c_max` is a **Busy
///   node** and must offload its excess `Cs_i = C_i − c_max` (Eq. 3c).
/// * `co_max` — a node with `C_j ≤ co_max` is an **Offload-candidate** with
///   spare capacity `Cd_j = co_max − C_j` (Eq. 3d).
/// * `x_min` — the minimum utilization any node exhibits (constraint 3e);
///   also feeds the `Δ_io` feasibility parameter (Eq. 5).
/// * `max_hop` — hop bound on controllable routes (`None` = unlimited).
///
/// `T_rmin` is priced by the hop-bounded DP, which reaches the paper's
/// enumerated minimum bit for bit (ablation 1 in DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DustConfig {
    /// Busy-node threshold capacity, percent.
    pub c_max: f64,
    /// Offload-candidate threshold capacity, percent.
    pub co_max: f64,
    /// Minimum node utilization, percent.
    pub x_min: f64,
    /// Hop bound for controllable routes.
    pub max_hop: Option<usize>,
}

impl DustConfig {
    /// A configuration with paper-flavoured defaults:
    /// `C_max = 80`, `CO_max = 50`, `x_min = 5`, unlimited hops. These
    /// satisfy the paper's recommendation `Δ_io ≥ 2` (Eq. 5:
    /// `(50−5)/(100−80) = 2.25`).
    pub fn paper_defaults() -> Self {
        DustConfig { c_max: 80.0, co_max: 50.0, x_min: 5.0, max_hop: None }
    }

    /// Validate invariant ordering `0 ≤ x_min ≤ co_max ≤ c_max ≤ 100`.
    ///
    /// `co_max < c_max` is required so no node is simultaneously Busy and an
    /// Offload-candidate; equality is permitted at the boundary.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.x_min >= 0.0 && self.x_min <= 100.0) {
            return Err(format!("x_min must be in [0,100], got {}", self.x_min));
        }
        if !(self.c_max > 0.0 && self.c_max <= 100.0) {
            return Err(format!("c_max must be in (0,100], got {}", self.c_max));
        }
        if !(self.co_max >= 0.0 && self.co_max <= 100.0) {
            return Err(format!("co_max must be in [0,100], got {}", self.co_max));
        }
        if self.co_max > self.c_max {
            return Err(format!(
                "co_max ({}) must not exceed c_max ({}): a node must never be Busy and a candidate at once",
                self.co_max, self.c_max
            ));
        }
        if self.x_min > self.co_max {
            return Err(format!(
                "x_min ({}) above co_max ({}) leaves candidates no expressible spare capacity",
                self.x_min, self.co_max
            ));
        }
        if let Some(0) = self.max_hop {
            return Err("max_hop of 0 forbids all routes".to_string());
        }
        Ok(())
    }

    /// The `Δ_io` feasibility parameter (Eq. 5):
    /// `Δ_io = (CO_max − x_min) / (100 − C_max)`.
    ///
    /// Larger values mean candidate headroom dwarfs possible excess load, so
    /// the optimization is more likely feasible. The paper recommends
    /// choosing thresholds with `Δ_io ≥ K_io = 2`.
    ///
    /// Returns `f64::INFINITY` when `c_max = 100` (busy nodes then have no
    /// excess by definition).
    pub fn delta_io(&self) -> f64 {
        let num = self.co_max - self.x_min;
        let den = 100.0 - self.c_max;
        if den <= 0.0 {
            f64::INFINITY
        } else {
            num / den
        }
    }

    /// Builder-style: set the hop bound.
    pub fn with_max_hop(mut self, h: Option<usize>) -> Self {
        self.max_hop = h;
        self
    }

    /// Returns `self`: [`PathEngine`] has one variant, so there is
    /// nothing to set. It exists only because the benchmark under
    /// `benchmark/` calls it; ROADMAP item 1's mechanical benchmark edit
    /// deletes it.
    pub fn with_engine(self, _: PathEngine) -> Self {
        self
    }

    /// Builder-style: set thresholds.
    pub fn with_thresholds(mut self, c_max: f64, co_max: f64, x_min: f64) -> Self {
        self.c_max = c_max;
        self.co_max = co_max;
        self.x_min = x_min;
        self
    }
}

impl Default for DustConfig {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_valid_and_recommended() {
        let c = DustConfig::paper_defaults();
        c.validate().unwrap();
        assert!(c.delta_io() >= 2.0, "defaults must satisfy the K_io >= 2 recommendation");
    }

    #[test]
    fn delta_io_formula() {
        let c = DustConfig::paper_defaults().with_thresholds(80.0, 50.0, 5.0);
        assert!((c.delta_io() - 2.25).abs() < 1e-12);
    }

    #[test]
    fn delta_io_infinite_at_cmax_100() {
        let c = DustConfig::paper_defaults().with_thresholds(100.0, 50.0, 5.0);
        assert!(c.delta_io().is_infinite());
    }

    #[test]
    fn overlapping_thresholds_rejected() {
        let c = DustConfig::paper_defaults().with_thresholds(60.0, 70.0, 5.0);
        assert!(c.validate().is_err());
    }

    #[test]
    fn xmin_above_comax_rejected() {
        let c = DustConfig::paper_defaults().with_thresholds(80.0, 50.0, 55.0);
        assert!(c.validate().is_err());
    }

    #[test]
    fn zero_max_hop_rejected() {
        let c = DustConfig::paper_defaults().with_max_hop(Some(0));
        assert!(c.validate().is_err());
    }

    #[test]
    fn boundary_equal_thresholds_allowed() {
        let c = DustConfig::paper_defaults().with_thresholds(70.0, 70.0, 5.0);
        c.validate().unwrap();
    }
}
