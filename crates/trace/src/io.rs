//! Plain-text serialization of workloads.
//!
//! A workload can be dumped to (and reloaded from) a line-oriented text
//! format, so users can inspect generated traces, hand-edit them, or bring
//! reference streams from other tools into the simulator:
//!
//! ```text
//! # dirext trace v1
//! workload MP3D procs 16
//! proc 0
//! c 24            # compute 24 cycles
//! r 0x1000        # read
//! w 0x1004        # write
//! p 0x1040        # software prefetch (shared)
//! x 0x1060        # software prefetch (exclusive)
//! a 0x100000      # acquire the lock at this address
//! l 0x100000      # release it
//! b 3             # arrive at barrier 3
//! proc 1
//! ...
//! ```
//!
//! Comments (`#` to end of line) and blank lines are ignored. Addresses
//! accept decimal or `0x` hexadecimal, up to `0xffffffff` (the 4 GiB shared
//! address space); `procs` runs from 1 to [`MAX_NODES`].

use std::fmt;
use std::io::{self, BufRead, Write};

use crate::{Addr, BarrierId, MemEvent, Program, Workload, MAX_NODES};

/// The header magic of trace files.
pub const TRACE_MAGIC: &str = "# dirext trace v1";

/// Errors from [`read_text`].
#[derive(Debug)]
pub enum TraceReadError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Syntax error with its 1-based line number.
    Parse {
        /// Line where the error occurred.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for TraceReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceReadError::Io(e) => write!(f, "trace read failed: {e}"),
            TraceReadError::Parse { line, message } => {
                write!(f, "trace parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for TraceReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceReadError::Io(e) => Some(e),
            TraceReadError::Parse { .. } => None,
        }
    }
}

impl From<io::Error> for TraceReadError {
    fn from(e: io::Error) -> Self {
        TraceReadError::Io(e)
    }
}

/// Writes `workload` in the text trace format.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_text<W: Write>(workload: &Workload, out: &mut W) -> io::Result<()> {
    writeln!(out, "{TRACE_MAGIC}")?;
    writeln!(
        out,
        "workload {} procs {}",
        workload.name(),
        workload.procs()
    )?;
    for (i, program) in workload.programs().iter().enumerate() {
        writeln!(out, "proc {i}")?;
        for e in program.events() {
            match e {
                MemEvent::Compute(c) => writeln!(out, "c {c}")?,
                MemEvent::Read(a) => writeln!(out, "r {:#x}", a.byte())?,
                MemEvent::Write(a) => writeln!(out, "w {:#x}", a.byte())?,
                MemEvent::Prefetch {
                    addr,
                    exclusive: false,
                } => writeln!(out, "p {:#x}", addr.byte())?,
                MemEvent::Prefetch {
                    addr,
                    exclusive: true,
                } => writeln!(out, "x {:#x}", addr.byte())?,
                MemEvent::Acquire(a) => writeln!(out, "a {:#x}", a.byte())?,
                MemEvent::Release(a) => writeln!(out, "l {:#x}", a.byte())?,
                MemEvent::Barrier(id) => writeln!(out, "b {}", id.0)?,
            }
        }
    }
    Ok(())
}

fn parse_u64(token: &str) -> Option<u64> {
    if let Some(hex) = token
        .strip_prefix("0x")
        .or_else(|| token.strip_prefix("0X"))
    {
        u64::from_str_radix(hex, 16).ok()
    } else {
        token.parse().ok()
    }
}

/// Reads a workload from the text trace format.
///
/// The declared `procs` count fixes the number of programs; `proc` sections
/// may appear in any order and omitted processors get empty programs.
///
/// # Errors
///
/// Returns [`TraceReadError`] on I/O failure or malformed input.
pub fn read_text<R: BufRead>(input: R) -> Result<Workload, TraceReadError> {
    let mut name = String::from("trace");
    let mut programs: Vec<Program> = Vec::new();
    let mut current: Option<usize> = None;
    let mut saw_header = false;

    let err = |line: usize, message: String| TraceReadError::Parse { line, message };

    for (idx, line) in input.lines().enumerate() {
        let lineno = idx + 1;
        let line = line?;
        let line = match line.split_once('#') {
            Some((before, _)) => before,
            None => line.as_str(),
        }
        .trim();
        if idx == 0 {
            // The magic is a comment line; insist on it so a headerless
            // file fails loudly instead of losing its first directive.
            if !line.is_empty() {
                return Err(err(
                    1,
                    format!("missing trace header (expected '{TRACE_MAGIC}')"),
                ));
            }
            saw_header = true;
            continue;
        }
        if line.is_empty() {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let op = tokens.next().expect("nonempty line");
        match op {
            "workload" => {
                let n = tokens
                    .next()
                    .ok_or_else(|| err(lineno, "missing workload name".into()))?;
                name = n.to_owned();
                match (tokens.next(), tokens.next()) {
                    (Some("procs"), Some(p)) => {
                        let procs: usize = p
                            .parse()
                            .map_err(|_| err(lineno, format!("bad processor count '{p}'")))?;
                        if procs == 0 || procs > MAX_NODES {
                            return Err(err(
                                lineno,
                                format!("processor count {procs} out of range 1..={MAX_NODES}"),
                            ));
                        }
                        programs = vec![Program::new(); procs];
                    }
                    _ => return Err(err(lineno, "expected 'workload <name> procs <n>'".into())),
                }
            }
            "proc" => {
                let p = tokens
                    .next()
                    .ok_or_else(|| err(lineno, "missing processor id".into()))?;
                let p: usize = p
                    .parse()
                    .map_err(|_| err(lineno, format!("bad processor id '{p}'")))?;
                if p >= programs.len() {
                    return Err(err(
                        lineno,
                        format!("processor {p} out of range (procs = {})", programs.len()),
                    ));
                }
                current = Some(p);
            }
            "c" | "r" | "w" | "p" | "x" | "a" | "l" | "b" => {
                let Some(p) = current else {
                    return Err(err(lineno, "event before any 'proc' line".into()));
                };
                let arg = tokens
                    .next()
                    .ok_or_else(|| err(lineno, format!("'{op}' needs an argument")))?;
                let v = parse_u64(arg)
                    .ok_or_else(|| err(lineno, format!("bad numeric argument '{arg}'")))?;
                let addr = || {
                    Addr::try_new(v).ok_or_else(|| {
                        err(
                            lineno,
                            format!("address {arg} lies past the 4 GiB shared address space"),
                        )
                    })
                };
                let event = match op {
                    "c" => {
                        let c = u32::try_from(v)
                            .map_err(|_| err(lineno, format!("compute count {v} too large")))?;
                        MemEvent::Compute(c)
                    }
                    "r" => MemEvent::Read(addr()?),
                    "w" => MemEvent::Write(addr()?),
                    "p" => MemEvent::Prefetch {
                        addr: addr()?,
                        exclusive: false,
                    },
                    "x" => MemEvent::Prefetch {
                        addr: addr()?,
                        exclusive: true,
                    },
                    "a" => MemEvent::Acquire(addr()?),
                    "l" => MemEvent::Release(addr()?),
                    "b" => {
                        let id = u32::try_from(v)
                            .map_err(|_| err(lineno, format!("barrier id {v} too large")))?;
                        MemEvent::Barrier(BarrierId(id))
                    }
                    _ => unreachable!(),
                };
                programs[p].push(event);
            }
            other => return Err(err(lineno, format!("unknown directive '{other}'"))),
        }
    }
    if !saw_header {
        return Err(err(1, "empty trace".into()));
    }
    if programs.is_empty() {
        return Err(err(1, "missing 'workload' declaration".into()));
    }
    Ok(Workload::new(name, programs))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Workload {
        let p0 = Program::from_events(vec![
            MemEvent::Compute(5),
            MemEvent::Read(Addr::new(64)),
            MemEvent::Acquire(Addr::new(4096)),
            MemEvent::Write(Addr::new(68)),
            MemEvent::Release(Addr::new(4096)),
            MemEvent::Barrier(BarrierId(0)),
        ]);
        let p1 = Program::from_events(vec![MemEvent::Barrier(BarrierId(0))]);
        Workload::new("sample", vec![p0, p1])
    }

    #[test]
    fn round_trip_preserves_everything() {
        let w = sample();
        let mut buf = Vec::new();
        write_text(&w, &mut buf).unwrap();
        let back = read_text(buf.as_slice()).unwrap();
        assert_eq!(back.name(), w.name());
        assert_eq!(back.procs(), w.procs());
        for i in 0..w.procs() {
            assert_eq!(back.program(i), w.program(i), "proc {i}");
        }
    }

    #[test]
    fn accepts_decimal_and_hex_with_comments() {
        let text = "# dirext trace v1\n\
                    workload t procs 2\n\
                    proc 0\n\
                    r 64        # decimal\n\
                    w 0x40      # hex, same block\n\
                    \n\
                    b 0\n\
                    proc 1\n\
                    b 0\n";
        let w = read_text(text.as_bytes()).unwrap();
        assert_eq!(w.program(0).data_refs(), 2);
        w.validate().unwrap();
    }

    #[test]
    fn omitted_processors_get_empty_programs() {
        let text = "# dirext trace v1\nworkload t procs 3\nproc 1\nc 4\n";
        let w = read_text(text.as_bytes()).unwrap();
        assert_eq!(w.procs(), 3);
        assert!(w.program(0).is_empty());
        assert_eq!(w.program(1).len(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let text = "# dirext trace v1\nworkload t procs 1\nproc 0\nz 1\n";
        match read_text(text.as_bytes()) {
            Err(TraceReadError::Parse { line, message }) => {
                assert_eq!(line, 4);
                assert!(message.contains("unknown directive"));
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn event_before_proc_rejected() {
        let text = "# dirext trace v1\nworkload t procs 1\nc 4\n";
        assert!(matches!(
            read_text(text.as_bytes()),
            Err(TraceReadError::Parse { line: 3, .. })
        ));
    }

    #[test]
    fn out_of_range_proc_rejected() {
        let text = "# dirext trace v1\nworkload t procs 2\nproc 5\n";
        assert!(matches!(
            read_text(text.as_bytes()),
            Err(TraceReadError::Parse { line: 3, .. })
        ));
    }

    #[test]
    fn addresses_stop_at_four_gib() {
        let text = |a: &str| format!("# dirext trace v1\nworkload t procs 1\nproc 0\nr {a}\n");
        let w = read_text(text("0xffffffff").as_bytes()).unwrap();
        assert_eq!(
            w.program(0).events(),
            &[MemEvent::Read(Addr::new(0xffff_ffff))]
        );
        match read_text(text("0x100000000").as_bytes()) {
            Err(TraceReadError::Parse { line, message }) => {
                assert_eq!(line, 4);
                assert!(message.contains("0x100000000"), "{message}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn empty_input_rejected() {
        assert!(read_text("".as_bytes()).is_err());
    }
}
