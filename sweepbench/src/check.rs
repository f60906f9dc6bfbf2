//! The output check: every cell's simulated statistics against the values
//! recorded at the default seed, and against the cell's first execution in
//! this run.

use std::collections::BTreeMap;

use dirext_sim::stats::Metrics;

/// What is recorded of one cell's [`Metrics`]: two readable counters and a
/// fingerprint of every field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recorded {
    pub exec_cycles: u64,
    pub net_msgs: u64,
    pub fingerprint: u64,
}

impl Recorded {
    pub fn of(m: &Metrics) -> Self {
        Recorded {
            exec_cycles: m.exec_cycles,
            net_msgs: m.net_msgs,
            fingerprint: fnv1a(format!("{m:?}").as_bytes()),
        }
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One line of a golden file: `id<TAB>exec_cycles<TAB>net_msgs<TAB>fingerprint`.
pub fn golden_line(id: &str, r: &Recorded) -> String {
    format!(
        "{id}\t{}\t{}\t{:016x}",
        r.exec_cycles, r.net_msgs, r.fingerprint
    )
}

/// Parses a golden file written with [`golden_line`].
pub fn parse_golden(text: &str) -> Result<BTreeMap<String, Recorded>, String> {
    let mut out = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = || format!("golden line {}: {line:?}", n + 1);
        let f: Vec<&str> = line.split('\t').collect();
        let [id, cycles, msgs, fp] = f[..] else {
            return Err(bad());
        };
        let r = Recorded {
            exec_cycles: cycles.parse().map_err(|_| bad())?,
            net_msgs: msgs.parse().map_err(|_| bad())?,
            fingerprint: u64::from_str_radix(fp, 16).map_err(|_| bad())?,
        };
        if out.insert(id.to_owned(), r).is_some() {
            return Err(format!("golden line {}: duplicate cell {id}", n + 1));
        }
    }
    Ok(out)
}

/// Checks each execution of a cell against the golden record (when one
/// applies) and against the first execution of the same cell in this run.
#[derive(Debug)]
pub struct Checker {
    golden: Option<BTreeMap<String, Recorded>>,
    first: Vec<Option<Recorded>>,
}

impl Checker {
    pub fn new(cells: usize, golden: Option<BTreeMap<String, Recorded>>) -> Self {
        Checker {
            golden,
            first: vec![None; cells],
        }
    }

    pub fn check(&mut self, cell: usize, id: &str, m: &Metrics) -> Result<(), String> {
        let got = Recorded::of(m);
        if let Some(golden) = &self.golden {
            match golden.get(id) {
                None => return Err(format!("{id}: no recorded statistics")),
                Some(want) if *want != got => {
                    return Err(format!(
                        "{id}: statistics differ from the recorded ones \
                         (exec_cycles {} vs {}, net_msgs {} vs {}, fingerprint {:016x} vs {:016x})",
                        got.exec_cycles,
                        want.exec_cycles,
                        got.net_msgs,
                        want.net_msgs,
                        got.fingerprint,
                        want.fingerprint
                    ))
                }
                Some(_) => {}
            }
        }
        match self.first[cell] {
            None => self.first[cell] = Some(got),
            Some(first) if first != got => {
                return Err(format!(
                    "{id}: statistics differ from this run's first execution of the cell"
                ))
            }
            Some(_) => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirext_sim::core::{Consistency, ProtocolKind};
    use dirext_sim::{Machine, MachineConfig};

    fn simulated() -> Metrics {
        let w = dirext_workloads::micro::producer_consumer(4, 4, 10);
        let cfg = MachineConfig::new(4, ProtocolKind::PCw.config(Consistency::Rc));
        Machine::new(cfg).run(&w).expect("tiny run completes")
    }

    #[test]
    fn golden_round_trips() {
        let r = Recorded::of(&simulated());
        let text = format!("# header\n{}\n", golden_line("a/b", &r));
        assert_eq!(parse_golden(&text).unwrap()["a/b"], r);
        assert!(parse_golden("a\t1\t2\n").is_err());
        assert!(parse_golden(&format!("{0}\n{0}\n", golden_line("x", &r))).is_err());
    }

    #[test]
    fn matching_statistics_pass() {
        let m = simulated();
        let golden = BTreeMap::from([("cell".to_owned(), Recorded::of(&m))]);
        let mut c = Checker::new(1, Some(golden));
        assert_eq!(c.check(0, "cell", &m), Ok(()));
        assert_eq!(c.check(0, "cell", &m), Ok(()));
    }

    #[test]
    fn one_perturbed_counter_fails_the_check() {
        // Negative control: a single counter off by one, in a field that is
        // neither of the two readable ones, must be caught.
        let m = simulated();
        let mut bad = m.clone();
        bad.wc_read_hits += 1;
        let golden = BTreeMap::from([("cell".to_owned(), Recorded::of(&m))]);
        let err = Checker::new(1, Some(golden)).check(0, "cell", &bad);
        assert!(err.unwrap_err().contains("differ from the recorded"));

        // Without a golden record the first execution is the reference.
        let mut c = Checker::new(1, None);
        assert_eq!(c.check(0, "cell", &m), Ok(()));
        assert!(c.check(0, "cell", &bad).is_err());
    }

    #[test]
    fn unrecorded_cell_fails() {
        let mut c = Checker::new(1, Some(BTreeMap::new()));
        assert!(c.check(0, "cell", &simulated()).is_err());
    }
}
