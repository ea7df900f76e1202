//! Span recording end to end: an evaluated cell yields spans for all five
//! pipeline stages and both cache tiers, a second session on the same
//! directory moves the disk tier's counters, every per-thread stream is
//! well-nested, and the Chrome trace export is valid JSON. The metrics are
//! process-global, so this binary holds this one test.

use asip_core::session::EvalRequest;
use asip_core::{Session, StageKind};
use asip_isa::MachineDescription;
use asip_obs::SpanEvent;

/// A minimal JSON validator (objects, arrays, strings, numbers, literals):
/// enough to prove the hand-written Chrome exporter emits a syntactically
/// complete document without pulling in a JSON dependency.
fn check_json(s: &str) -> Result<(), String> {
    struct P<'a> {
        b: &'a [u8],
        i: usize,
    }
    impl P<'_> {
        fn ws(&mut self) {
            while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.i += 1;
            }
        }
        fn eat(&mut self, c: u8) -> Result<(), String> {
            if self.b.get(self.i) == Some(&c) {
                self.i += 1;
                Ok(())
            } else {
                Err(format!("expected {:?} at byte {}", c as char, self.i))
            }
        }
        fn string(&mut self) -> Result<(), String> {
            self.eat(b'"')?;
            while let Some(&c) = self.b.get(self.i) {
                self.i += 1;
                match c {
                    b'"' => return Ok(()),
                    b'\\' => self.i += 1, // good enough: skip the escapee
                    _ => {}
                }
            }
            Err("unterminated string".into())
        }
        fn value(&mut self) -> Result<(), String> {
            self.ws();
            match self.b.get(self.i) {
                Some(b'{') => {
                    self.i += 1;
                    self.ws();
                    if self.b.get(self.i) == Some(&b'}') {
                        self.i += 1;
                        return Ok(());
                    }
                    loop {
                        self.ws();
                        self.string()?;
                        self.ws();
                        self.eat(b':')?;
                        self.value()?;
                        self.ws();
                        match self.b.get(self.i) {
                            Some(b',') => self.i += 1,
                            Some(b'}') => {
                                self.i += 1;
                                return Ok(());
                            }
                            _ => return Err(format!("bad object at byte {}", self.i)),
                        }
                    }
                }
                Some(b'[') => {
                    self.i += 1;
                    self.ws();
                    if self.b.get(self.i) == Some(&b']') {
                        self.i += 1;
                        return Ok(());
                    }
                    loop {
                        self.value()?;
                        self.ws();
                        match self.b.get(self.i) {
                            Some(b',') => self.i += 1,
                            Some(b']') => {
                                self.i += 1;
                                return Ok(());
                            }
                            _ => return Err(format!("bad array at byte {}", self.i)),
                        }
                    }
                }
                Some(b'"') => self.string(),
                Some(c) if c.is_ascii_digit() || *c == b'-' => {
                    while matches!(
                        self.b.get(self.i),
                        Some(c) if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E')
                    ) {
                        self.i += 1;
                    }
                    Ok(())
                }
                _ => {
                    for lit in ["true", "false", "null"] {
                        if self.b[self.i..].starts_with(lit.as_bytes()) {
                            self.i += lit.len();
                            return Ok(());
                        }
                    }
                    Err(format!("bad value at byte {}", self.i))
                }
            }
        }
    }
    let mut p = P {
        b: s.as_bytes(),
        i: 0,
    };
    p.value()?;
    p.ws();
    if p.i == p.b.len() {
        Ok(())
    } else {
        Err(format!("trailing bytes at {}", p.i))
    }
}

/// Per-thread streams must be properly nested: any two spans on one
/// thread are either disjoint or one contains the other.
fn assert_well_nested(events: &[SpanEvent]) {
    // events() orders by (tid, start, longest-first), so a plain sweep
    // with a stack of open intervals suffices.
    let mut stack: Vec<(u32, u64, u64)> = Vec::new(); // (tid, start, end)
    for e in events {
        let end = e.start_ns + e.dur_ns;
        while let Some(&(tid, _, top_end)) = stack.last() {
            if tid != e.tid || top_end <= e.start_ns {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&(tid, top_start, top_end)) = stack.last() {
            if tid == e.tid {
                assert!(
                    e.start_ns >= top_start && end <= top_end,
                    "span {}/{} [{}, {end}) straddles enclosing [{top_start}, {top_end}) on tid {tid}",
                    e.cat,
                    e.name,
                    e.start_ns,
                );
            }
        }
        stack.push((e.tid, e.start_ns, end));
    }
}

#[test]
fn trace_covers_stages_and_tiers_and_exports_valid_json() {
    let dir = std::env::temp_dir().join(format!("asip-obs-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let trace_file = dir.join("trace.json");
    asip_obs::set_trace_path(Some(trace_file.clone()));
    asip_obs::reset();

    // Disk tier on, one worker (single-threaded streams are the
    // interesting nesting case: stage spans enclose tier spans).
    let s = Session::builder()
        .threads(1)
        .cache_dir(dir.join("cache"))
        .build();
    let w = asip_workloads::by_name("crc32").unwrap();
    let req = EvalRequest::new(w, MachineDescription::ember4());
    assert!(s.eval(&req).is_ok()); // cold: every stage misses, stores to both tiers
    assert!(s.eval(&req).is_ok()); // warm: memory hits
    let cold_dir = Session::builder()
        .threads(1)
        .cache_dir(dir.join("cache"))
        .build();
    assert!(cold_dir.eval(&req).is_ok()); // new memory tier: disk hits

    let snap = asip_obs::snapshot();
    for name in ["cache.disk.stores", "cache.disk.loads", "cache.disk.hits"] {
        assert!(snap.counter(name) > 0, "{name} is zero");
    }

    let events = asip_obs::events();

    for stage in StageKind::ALL {
        assert!(
            events
                .iter()
                .any(|e| e.cat == "stage" && e.name == stage.name()),
            "no span for stage {}",
            stage.name()
        );
    }
    for tier in ["mem", "disk"] {
        assert!(
            events.iter().any(|e| e.cat == "cache" && e.name == tier),
            "no span for cache tier {tier}"
        );
    }
    assert!(events.iter().any(|e| e.cat == "stage" && e.note == "miss"));
    assert!(events.iter().any(|e| e.cat == "stage" && e.note == "hit"));
    assert!(events.iter().any(|e| e.cat == "cache" && e.note == "store"));
    assert!(events
        .iter()
        .any(|e| e.cat == "cache" && e.name == "disk" && e.note == "load"));
    assert!(events.iter().any(|e| e.cat == "cell" && e.name == "eval"));
    assert!(events
        .iter()
        .all(|e| !e.cat.is_empty() && !e.name.is_empty()));
    assert_well_nested(&events);

    let (path, count) = asip_obs::flush_trace()
        .expect("trace writes")
        .expect("trace path configured");
    assert_eq!(path, trace_file);
    assert_eq!(count, events.len());
    let json = std::fs::read_to_string(&trace_file).unwrap();
    check_json(&json).expect("exporter emits valid JSON");
    assert!(json.contains("\"displayTimeUnit\":\"ms\""));
    assert!(json.contains("\"ph\":\"X\""));

    asip_obs::set_trace_path(None);
    asip_obs::clear_events();
    let _ = std::fs::remove_dir_all(&dir);
}
