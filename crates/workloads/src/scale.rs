//! Problem-size scaling.

/// Problem scale for the workload generators.
///
/// The paper's inputs (10 K particles, bcsstk14, 288 molecules, 200×200,
/// 128×128) produce reference streams that take minutes to simulate per
/// protocol; the full evaluation sweeps a hundred-plus configurations.
/// `Paper` keeps the papers' *shapes* at roughly a million shared
/// references per application; `Small` targets integration tests; `Tiny`
/// keeps CI runs in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scale {
    /// Full experiment scale (the CLI's default).
    #[default]
    Paper,
    /// Integration-test scale.
    Small,
    /// Smoke-test scale.
    Tiny,
}

impl Scale {
    /// Picks one of three values by scale.
    pub fn pick<T: Copy>(self, paper: T, small: T, tiny: T) -> T {
        match self {
            Scale::Paper => paper,
            Scale::Small => small,
            Scale::Tiny => tiny,
        }
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Scale::Paper => write!(f, "paper"),
            Scale::Small => write!(f, "small"),
            Scale::Tiny => write!(f, "tiny"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_selects_by_scale() {
        assert_eq!(Scale::Paper.pick(1, 2, 3), 1);
        assert_eq!(Scale::Small.pick(1, 2, 3), 2);
        assert_eq!(Scale::Tiny.pick(1, 2, 3), 3);
        assert_eq!(Scale::default(), Scale::Paper);
    }
}
