//! The machine-description language: a tiny text DSL so architecture tables
//! can live in files, diffs and reports — the literal "table-driven
//! architectural description" of paper §3.1.
//!
//! ```text
//! machine "ember4" {
//!   clusters 1
//!   registers 32
//!   slot { alu mem branch }
//!   slot { alu mul }
//!   slot { alu custom }
//!   slot { alu mul mem }
//!   latency mul 2
//!   latency div 8
//!   latency mem 2
//!   branch_penalty 1
//!   copy_latency 1
//!   encoding stopbit
//!   icache 8192 32 2 10
//!   gate_idle_slots on
//! }
//! ```

use crate::machine::{Encoding, ICacheConfig, MachineDescription, MachineError, TargetKind};
use crate::op::FuKind;
use std::fmt;

/// Error from parsing a machine description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending token.
    pub line: usize,
    /// Description of what went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "machine description line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl From<MachineError> for ParseError {
    fn from(e: MachineError) -> Self {
        ParseError {
            line: 0,
            message: e.to_string(),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Word(String),
    Str(String),
    Num(i64),
    LBrace,
    RBrace,
}

fn lex(src: &str) -> Result<Vec<(Tok, usize)>, ParseError> {
    let mut toks = Vec::new();
    for (ln, raw) in src.lines().enumerate() {
        let line = ln + 1;
        let text = raw.split('#').next().unwrap_or("");
        let mut chars = text.char_indices().peekable();
        while let Some(&(i, c)) = chars.peek() {
            if c.is_whitespace() {
                chars.next();
            } else if c == '{' {
                chars.next();
                toks.push((Tok::LBrace, line));
            } else if c == '}' {
                chars.next();
                toks.push((Tok::RBrace, line));
            } else if c == '"' {
                chars.next();
                let start = i + 1;
                let mut end = start;
                let mut closed = false;
                for (j, d) in chars.by_ref() {
                    if d == '"' {
                        end = j;
                        closed = true;
                        break;
                    }
                }
                if !closed {
                    return Err(ParseError {
                        line,
                        message: "unterminated string".into(),
                    });
                }
                toks.push((Tok::Str(text[start..end].to_string()), line));
            } else if c.is_ascii_digit() || c == '-' {
                let start = i;
                let mut end = i + c.len_utf8();
                chars.next();
                while let Some(&(j, d)) = chars.peek() {
                    if d.is_ascii_digit() {
                        end = j + 1;
                        chars.next();
                    } else {
                        break;
                    }
                }
                let v: i64 = text[start..end].parse().map_err(|_| ParseError {
                    line,
                    message: format!("bad number {:?}", &text[start..end]),
                })?;
                toks.push((Tok::Num(v), line));
            } else if c.is_ascii_alphabetic() || c == '_' {
                let start = i;
                let mut end = i + 1;
                chars.next();
                while let Some(&(j, d)) = chars.peek() {
                    if d.is_ascii_alphanumeric() || d == '_' {
                        end = j + 1;
                        chars.next();
                    } else {
                        break;
                    }
                }
                toks.push((Tok::Word(text[start..end].to_string()), line));
            } else {
                return Err(ParseError {
                    line,
                    message: format!("unexpected character {c:?}"),
                });
            }
        }
    }
    Ok(toks)
}

struct Parser {
    toks: Vec<(Tok, usize)>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&(Tok, usize)> {
        self.toks.get(self.pos)
    }

    fn line(&self) -> usize {
        self.peek()
            .map(|t| t.1)
            .unwrap_or_else(|| self.toks.last().map(|t| t.1).unwrap_or(0))
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line(),
            message: msg.into(),
        }
    }

    fn next(&mut self) -> Result<Tok, ParseError> {
        let t = self.toks.get(self.pos).cloned().ok_or_else(|| ParseError {
            line: self.toks.last().map(|t| t.1).unwrap_or(0),
            message: "unexpected end of input".into(),
        })?;
        self.pos += 1;
        Ok(t.0)
    }

    fn expect_word(&mut self, w: &str) -> Result<(), ParseError> {
        match self.next()? {
            Tok::Word(s) if s == w => Ok(()),
            other => Err(self.err(format!("expected {w:?}, found {other:?}"))),
        }
    }

    fn num(&mut self) -> Result<i64, ParseError> {
        match self.next()? {
            Tok::Num(v) => Ok(v),
            other => Err(self.err(format!("expected a number, found {other:?}"))),
        }
    }

    fn unsigned(&mut self, what: &str) -> Result<u32, ParseError> {
        let v = self.num()?;
        u32::try_from(v).map_err(|_| self.err(format!("{what} must be non-negative")))
    }
}

/// Parse one `machine "name" { ... }` block.
///
/// # Errors
///
/// [`ParseError`] on syntax errors, unknown keys, or a description that
/// fails [`MachineDescription::validate`].
pub fn parse_machine(src: &str) -> Result<MachineDescription, ParseError> {
    let mut p = Parser {
        toks: lex(src)?,
        pos: 0,
    };
    p.expect_word("machine")?;
    let name = match p.next()? {
        Tok::Str(s) | Tok::Word(s) => s,
        other => return Err(p.err(format!("expected machine name, found {other:?}"))),
    };
    match p.next()? {
        Tok::LBrace => {}
        other => return Err(p.err(format!("expected '{{', found {other:?}"))),
    }

    let mut b = MachineDescription::builder(&name);
    b.icache(None);
    loop {
        match p.next()? {
            Tok::RBrace => break,
            Tok::Word(key) => match key.as_str() {
                "clusters" => {
                    let v = p.unsigned("clusters")?;
                    b.clusters(u8::try_from(v).map_err(|_| p.err("too many clusters"))?);
                }
                "registers" => {
                    let v = p.unsigned("registers")?;
                    b.registers(u16::try_from(v).map_err(|_| p.err("too many registers"))?);
                }
                "slot" => {
                    match p.next()? {
                        Tok::LBrace => {}
                        other => return Err(p.err(format!("expected '{{', found {other:?}"))),
                    }
                    let mut kinds = Vec::new();
                    loop {
                        match p.next()? {
                            Tok::RBrace => break,
                            Tok::Word(w) => {
                                let k = FuKind::from_name(&w)
                                    .ok_or_else(|| p.err(format!("unknown unit kind {w:?}")))?;
                                kinds.push(k);
                            }
                            other => {
                                return Err(p.err(format!("expected unit kind, found {other:?}")))
                            }
                        }
                    }
                    b.slot(&kinds);
                }
                "latency" => {
                    let which = match p.next()? {
                        Tok::Word(w) => w,
                        other => return Err(p.err(format!("expected unit name, found {other:?}"))),
                    };
                    let v = p.unsigned("latency")?;
                    match which.as_str() {
                        "mul" => b.lat_mul(v),
                        "div" => b.lat_div(v),
                        "mem" => b.lat_mem(v),
                        other => return Err(p.err(format!("unknown latency class {other:?}"))),
                    };
                }
                "branch_penalty" => {
                    let v = p.unsigned("branch_penalty")?;
                    b.branch_penalty(v);
                }
                "copy_latency" => {
                    let v = p.unsigned("copy_latency")?;
                    b.copy_latency(v);
                }
                "encoding" => {
                    let w = match p.next()? {
                        Tok::Word(w) => w,
                        other => return Err(p.err(format!("expected encoding, found {other:?}"))),
                    };
                    let e = Encoding::from_name(&w)
                        .ok_or_else(|| p.err(format!("unknown encoding {w:?}")))?;
                    b.encoding(e);
                }
                "target" => {
                    let w = match p.next()? {
                        Tok::Word(w) => w,
                        other => return Err(p.err(format!("expected target, found {other:?}"))),
                    };
                    let t = TargetKind::from_name(&w)
                        .ok_or_else(|| p.err(format!("unknown target {w:?}")))?;
                    b.target(t);
                }
                "forwarding" => {
                    let w = match p.next()? {
                        Tok::Word(w) => w,
                        other => return Err(p.err(format!("expected on/off, found {other:?}"))),
                    };
                    match w.as_str() {
                        "on" => b.forwarding(true),
                        "off" => b.forwarding(false),
                        other => return Err(p.err(format!("expected on/off, found {other:?}"))),
                    };
                }
                "icache" => {
                    let size = p.unsigned("icache size")?;
                    let line = p.unsigned("icache line")?;
                    let ways = p.unsigned("icache ways")?;
                    let pen = p.unsigned("icache miss penalty")?;
                    b.icache(Some(ICacheConfig {
                        size_bytes: size,
                        line_bytes: line,
                        ways,
                        miss_penalty: pen,
                    }));
                }
                "gate_idle_slots" => {
                    let w = match p.next()? {
                        Tok::Word(w) => w,
                        other => return Err(p.err(format!("expected on/off, found {other:?}"))),
                    };
                    match w.as_str() {
                        "on" => b.gate_idle_slots(true),
                        "off" => b.gate_idle_slots(false),
                        other => return Err(p.err(format!("expected on/off, found {other:?}"))),
                    };
                }
                "compat_control" => {
                    let w = match p.next()? {
                        Tok::Word(w) => w,
                        other => return Err(p.err(format!("expected on/off, found {other:?}"))),
                    };
                    match w.as_str() {
                        "on" => b.compat_control(true),
                        "off" => b.compat_control(false),
                        other => return Err(p.err(format!("expected on/off, found {other:?}"))),
                    };
                }
                "dmem_words" => {
                    let v = p.unsigned("dmem_words")?;
                    b.dmem_words(v);
                }
                other => return Err(p.err(format!("unknown key {other:?}"))),
            },
            other => return Err(p.err(format!("expected key or '}}', found {other:?}"))),
        }
    }
    if p.peek().is_some() {
        return Err(p.err("trailing tokens after machine block"));
    }
    Ok(b.build()?)
}

/// Render a description back into the DSL (inverse of [`parse_machine`] up
/// to formatting; custom operations are not serialized — they are selected
/// per application, not written by hand).
pub fn print_machine(m: &MachineDescription) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "machine \"{}\" {{", m.name);
    let _ = writeln!(s, "  target {}", m.target);
    let _ = writeln!(s, "  clusters {}", m.clusters);
    let _ = writeln!(s, "  registers {}", m.regs_per_cluster);
    for slot in &m.slots {
        let kinds: Vec<String> = slot.kinds().iter().map(|k| k.to_string()).collect();
        let _ = writeln!(s, "  slot {{ {} }}", kinds.join(" "));
    }
    let _ = writeln!(s, "  latency mul {}", m.lat_mul);
    let _ = writeln!(s, "  latency div {}", m.lat_div);
    let _ = writeln!(s, "  latency mem {}", m.lat_mem);
    let _ = writeln!(s, "  branch_penalty {}", m.branch_penalty);
    let _ = writeln!(
        s,
        "  forwarding {}",
        if m.forwarding { "on" } else { "off" }
    );
    let _ = writeln!(s, "  copy_latency {}", m.copy_latency);
    let _ = writeln!(s, "  encoding {}", m.encoding);
    if let Some(c) = m.icache {
        let _ = writeln!(
            s,
            "  icache {} {} {} {}",
            c.size_bytes, c.line_bytes, c.ways, c.miss_penalty
        );
    }
    let _ = writeln!(
        s,
        "  gate_idle_slots {}",
        if m.gate_idle_slots { "on" } else { "off" }
    );
    let _ = writeln!(
        s,
        "  compat_control {}",
        if m.compat_control { "on" } else { "off" }
    );
    let _ = writeln!(s, "  dmem_words {}", m.dmem_words);
    s.push_str("}\n");
    s
}

/// Compare two machine descriptions field by field, ignoring name and custom
/// ops — used by round-trip tests and the drift reports.
pub fn same_architecture(a: &MachineDescription, b: &MachineDescription) -> bool {
    a.target == b.target
        && a.forwarding == b.forwarding
        && a.clusters == b.clusters
        && a.regs_per_cluster == b.regs_per_cluster
        && a.slots == b.slots
        && a.lat_mul == b.lat_mul
        && a.lat_div == b.lat_div
        && a.lat_mem == b.lat_mem
        && a.branch_penalty == b.branch_penalty
        && a.copy_latency == b.copy_latency
        && a.encoding == b.encoding
        && a.icache == b.icache
        && a.gate_idle_slots == b.gate_idle_slots
        && a.compat_control == b.compat_control
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_minimal() {
        let m = parse_machine(
            r#"machine "t" {
                 registers 16
                 slot { alu mem branch }
               }"#,
        )
        .unwrap();
        assert_eq!(m.name, "t");
        assert_eq!(m.regs_per_cluster, 16);
        assert_eq!(m.issue_width(), 1);
        assert_eq!(m.icache, None);
    }

    #[test]
    fn parse_full_example() {
        let m = parse_machine(
            r#"# a four-issue clustered member
               machine "demo" {
                 clusters 2
                 registers 16
                 slot { alu mem branch }
                 slot { alu mul custom }
                 latency mul 3
                 latency div 10
                 latency mem 2
                 branch_penalty 2
                 copy_latency 2
                 encoding compact16
                 icache 4096 16 1 8
                 gate_idle_slots off
                 compat_control off
                 dmem_words 65536
               }"#,
        )
        .unwrap();
        assert_eq!(m.clusters, 2);
        assert_eq!(m.issue_width(), 4);
        assert_eq!(m.lat_mul, 3);
        assert_eq!(m.encoding, Encoding::Compact16);
        assert_eq!(m.icache.unwrap().size_bytes, 4096);
        assert!(!m.gate_idle_slots);
        assert_eq!(m.dmem_words, 65536);
    }

    #[test]
    fn scalar_target_and_forwarding_parse() {
        let m = parse_machine(
            r#"machine "s" {
                 target scalar
                 registers 16
                 slot { alu mem branch mul }
                 forwarding off
               }"#,
        )
        .unwrap();
        assert_eq!(m.target, TargetKind::Scalar);
        assert!(!m.forwarding);
        let e = parse_machine("machine \"s\" { target dataflow }").unwrap_err();
        assert!(e.message.contains("dataflow"));
    }

    #[test]
    fn print_parse_roundtrip_for_presets() {
        for m in MachineDescription::all_presets() {
            let text = print_machine(&m);
            let back = parse_machine(&text).unwrap_or_else(|e| panic!("{}: {e}\n{text}", m.name));
            assert!(
                same_architecture(&m, &back),
                "{} did not round-trip:\n{text}",
                m.name
            );
            assert_eq!(m.name, back.name);
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_machine("machine \"x\" {\n  registers 16\n  bogus 3\n}").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("bogus"));
    }

    #[test]
    fn unterminated_string_rejected() {
        let e = parse_machine("machine \"x {").unwrap_err();
        assert!(e.message.contains("unterminated"));
    }

    #[test]
    fn unknown_unit_kind_rejected() {
        let e = parse_machine("machine \"x\" { slot { alu fpu } }").unwrap_err();
        assert!(e.message.contains("fpu"));
    }

    #[test]
    fn invalid_machine_rejected_at_build() {
        // Parses fine but has no mem/branch slot → MachineError via build.
        let e = parse_machine("machine \"x\" { registers 16 slot { alu } }").unwrap_err();
        assert!(e.message.contains("mem"));
        // An I-cache with zero-byte lines, or of zero bytes, is no cache
        // the simulator can model.
        for icache in ["icache 8192 0 2 10", "icache 0 32 2 10"] {
            let text =
                format!("machine \"x\" {{ registers 16 slot {{ alu mem branch }} {icache} }}");
            let e = parse_machine(&text).unwrap_err();
            assert!(e.message.contains("I-cache"), "{icache}: {}", e.message);
        }
    }

    #[test]
    fn comments_and_negatives() {
        let e =
            parse_machine("machine \"x\" { registers -4 slot { alu mem branch } }").unwrap_err();
        assert!(e.message.contains("non-negative"));
    }
}
