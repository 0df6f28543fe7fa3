//! The four dataflow passes over function sketches.
//!
//! Each pass encodes one far-memory discipline the paper's round-trip
//! arithmetic depends on (DESIGN.md §14 catalogs them):
//!
//! * **rt-in-loop** — a serial fabric verb inside a loop body with no
//!   batch adopter in scope is loop-carried RT amplification: the
//!   O(1)-RT structure the paper argues for silently becomes O(n)
//!   serial verbs. The finding names the batched twin to migrate to.
//! * **lock-across-rt** — a `FarMutex` is *lease*-fenced
//!   (100 ms virtual); holding one across many round trips, or across
//!   any `.await` (unbounded suspension), is how a lease expires under
//!   the holder and a steal fences it out mid-critical-section.
//! * **guard-escape** — a far pointer read under an epoch `Guard` is
//!   only protected while that guard is alive; dereferencing it after
//!   the guard's scope ends races the reclaimer's grace detection
//!   (use-after-free on a one-sided fabric).
//! * **verb-in-drop** — fabric verbs inside `Drop` impls can't surface
//!   `FabricError`s and run at unpredictable times (mid-panic,
//!   mid-failover); both real `Drop` impls in the tree are purely
//!   local by design, and this pass keeps it that way.
//!
//! The passes report every violation they see; [`crate::audit_source`]
//! then drops the ones a waiver marker covers (the grammar is in the
//! crate docs).

use crate::lex::{Kind, Lexed};
use crate::sketch::{batched_twin, Ev, FnSketch};
use crate::{AuditConfig, Finding};

/// One `audit:`/`lint:` waiver marker: the word it names and the line it
/// sits on.
pub struct Marker {
    /// The word before `-ok` (`rt-in-loop`, `block`, …).
    pub word: String,
    /// 1-based line of the marker text.
    pub line: u32,
}

/// Extracts every waiver marker from the comment tokens: `audit:` or
/// `lint:`, a word, `-ok`, found anywhere inside a line or block
/// comment. A marker inside a string literal is data, not a waiver.
pub fn markers(lx: &Lexed) -> Vec<Marker> {
    let mut out = Vec::new();
    for t in &lx.tokens {
        if !matches!(t.kind, Kind::LineComment | Kind::BlockComment) {
            continue;
        }
        let text = lx.text(t);
        for key in ["audit:", "lint:"] {
            let mut from = 0usize;
            while let Some(pos) = text[from..].find(key) {
                let at = from + pos + key.len();
                from = at;
                let rest = text[at..].trim_start();
                let word: String = rest
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
                    .collect();
                if let Some(word) = word.strip_suffix("-ok") {
                    if !word.is_empty() {
                        let line = t.line + text[..at].matches('\n').count() as u32;
                        out.push(Marker { word: word.to_string(), line });
                    }
                }
            }
        }
    }
    out
}

/// Runs all four dataflow passes over one file's sketches.
pub fn dataflow_findings(path: &str, sketches: &[FnSketch], cfg: &AuditConfig) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in sketches {
        if crate::pass_enabled("rt-in-loop", path) {
            rt_in_loop(path, f, &mut out);
        }
        if crate::pass_enabled("lock-across-rt", path) {
            lock_across_rt(path, f, cfg, &mut out);
        }
        if crate::pass_enabled("guard-escape", path) {
            guard_escape(path, f, &mut out);
        }
        if crate::pass_enabled("verb-in-drop", path) {
            verb_in_drop(path, f, &mut out);
        }
    }
    out
}

struct LoopFrame {
    head_line: u32,
    verbs: Vec<(u32, String)>,
    adopter: bool,
}

/// One finding per innermost loop that issues serial verbs without a
/// batch adopter in scope.
fn rt_in_loop(path: &str, f: &FnSketch, out: &mut Vec<Finding>) {
    let mut scopes: Vec<bool> = Vec::new();
    let mut loops: Vec<LoopFrame> = Vec::new();
    let flush = |frame: LoopFrame, out: &mut Vec<Finding>| {
        if frame.adopter || frame.verbs.is_empty() {
            return;
        }
        let (line, first) = frame.verbs[0].clone();
        let names: Vec<&str> = frame.verbs.iter().map(|(_, n)| n.as_str()).collect();
        out.push(Finding {
            file: path.to_string(),
            line,
            function: f.name.clone(),
            pass: "rt-in-loop".to_string(),
            message: format!(
                "{} serial fabric verb(s) ({}) in the loop starting at line {} with no \
                 batch adopter in scope — loop-carried round-trip amplification",
                frame.verbs.len(),
                names.join(", "),
                frame.head_line,
            ),
            suggestion: format!(
                "batch through {}, or annotate `// audit: rt-in-loop-ok: <why>`",
                batched_twin(&first)
            ),
        });
    };
    for ev in &f.events {
        match ev {
            Ev::Open { line, is_loop } => {
                scopes.push(*is_loop);
                if *is_loop {
                    loops.push(LoopFrame { head_line: *line, verbs: Vec::new(), adopter: false });
                }
            }
            Ev::Close { .. } => {
                let closed_loop = scopes.pop() == Some(true);
                match loops.pop() {
                    Some(frame) if closed_loop => flush(frame, out),
                    Some(frame) => loops.push(frame),
                    None => {}
                }
            }
            Ev::Verb { line, name, .. } => {
                if let Some(frame) = loops.last_mut() {
                    frame.verbs.push((*line, name.clone()));
                }
            }
            Ev::Adopter { .. } => {
                for frame in loops.iter_mut() {
                    frame.adopter = true;
                }
            }
            _ => {}
        }
    }
    for frame in loops.drain(..).rev() {
        flush(frame, out);
    }
}

struct LockRegion {
    line: u32,
    verbs: u32,
    awaits: u32,
}

/// Flags lock-held regions spanning ≥ `lock_rt_threshold` fabric verbs
/// or any `.await` — the lease-expiry hazard.
fn lock_across_rt(path: &str, f: &FnSketch, cfg: &AuditConfig, out: &mut Vec<Finding>) {
    let mut open: Vec<LockRegion> = Vec::new();
    for ev in &f.events {
        match ev {
            Ev::Verb { .. } | Ev::Adopter { .. } => {
                for r in open.iter_mut() {
                    r.verbs += 1;
                }
            }
            Ev::Await { .. } => {
                for r in open.iter_mut() {
                    r.awaits += 1;
                }
            }
            Ev::Acquire { line } => {
                open.push(LockRegion { line: *line, verbs: 0, awaits: 0 });
            }
            Ev::Release { .. } => {
                let Some(r) = open.pop() else { continue };
                let over = r.verbs >= cfg.lock_rt_threshold as u32 || r.awaits > 0;
                if over {
                    let what = if r.awaits > 0 {
                        format!("{} .await point(s)", r.awaits)
                    } else {
                        format!("{} fabric verbs (threshold {})", r.verbs, cfg.lock_rt_threshold)
                    };
                    out.push(Finding {
                        file: path.to_string(),
                        line: r.line,
                        function: f.name.clone(),
                        pass: "lock-across-rt".to_string(),
                        message: format!(
                            "lease lock held across {what} — the 100 ms virtual lease can \
                             expire under the holder and a contender will fence it out"
                        ),
                        suggestion: "shrink the critical section (stage work before the lock, \
                                     commit under it), or annotate \
                                     `// audit: lock-across-rt-ok: <why>`"
                            .to_string(),
                    });
                }
            }
            _ => {}
        }
    }
}

struct LiveGuard {
    id: usize,
    name: String,
    depth: usize,
    alive: bool,
}

/// Flags fabric verbs that dereference an identifier derived under an
/// epoch guard after every guard it was derived under has died.
fn guard_escape(path: &str, f: &FnSketch, out: &mut Vec<Finding>) {
    let mut depth = 0usize;
    let mut guards: Vec<LiveGuard> = Vec::new();
    let mut next_id = 0usize;
    // ident -> ids of the guards alive when it was bound from a verb.
    let mut derived: std::collections::HashMap<String, Vec<usize>> =
        std::collections::HashMap::new();
    for ev in &f.events {
        match ev {
            Ev::Open { .. } => depth += 1,
            Ev::Close { .. } => {
                depth = depth.saturating_sub(1);
                for g in guards.iter_mut() {
                    if g.depth > depth {
                        g.alive = false;
                    }
                }
            }
            Ev::Let { names, from_verb, from_pin, .. } => {
                if *from_pin {
                    for n in names {
                        guards.push(LiveGuard {
                            id: next_id,
                            name: n.clone(),
                            depth,
                            alive: true,
                        });
                        next_id += 1;
                    }
                } else if *from_verb {
                    let live: Vec<usize> =
                        guards.iter().filter(|g| g.alive).map(|g| g.id).collect();
                    for n in names {
                        if live.is_empty() {
                            derived.remove(n);
                        } else {
                            derived.insert(n.clone(), live.clone());
                        }
                    }
                } else {
                    // A fresh non-verb binding shadows any stale value.
                    for n in names {
                        derived.remove(n);
                    }
                }
            }
            Ev::DropIdent { name, .. } => {
                for g in guards.iter_mut() {
                    if g.name == *name {
                        g.alive = false;
                    }
                }
            }
            Ev::Verb { line, name, idents } => {
                let dead = |id: &usize| guards.iter().any(|g| g.id == *id && !g.alive);
                for ident in idents {
                    let Some(ids) = derived.get(ident) else { continue };
                    if ids.iter().all(dead) {
                        out.push(Finding {
                            file: path.to_string(),
                            line: *line,
                            function: f.name.clone(),
                            pass: "guard-escape".to_string(),
                            message: format!(
                                "`{ident}` was derived from a fabric read under an epoch \
                                 guard that has since ended, and `{name}` dereferences it \
                                 here — the reclaimer may already have freed the target"
                            ),
                            suggestion: "keep the guard alive across every use of the \
                                         derived pointer (or re-pin and re-read), or \
                                         annotate `// audit: guard-escape-ok: <why>`"
                                .to_string(),
                        });
                        break;
                    }
                }
            }
            _ => {}
        }
    }
}

/// Flags any fabric verb (including lock traffic) inside an
/// `impl Drop` body.
fn verb_in_drop(path: &str, f: &FnSketch, out: &mut Vec<Finding>) {
    if !f.in_drop_impl {
        return;
    }
    for ev in &f.events {
        let (line, what) = match ev {
            Ev::Verb { line, name, .. } => (*line, name.clone()),
            Ev::Adopter { line } => (*line, "batched verbs".to_string()),
            Ev::Acquire { line } => (*line, "lock acquisition".to_string()),
            Ev::Release { line } => (*line, "lock release".to_string()),
            _ => continue,
        };
        out.push(Finding {
            file: path.to_string(),
            line,
            function: f.name.clone(),
            pass: "verb-in-drop".to_string(),
            message: format!(
                "fabric access ({what}) inside a Drop impl — retry/backoff cannot \
                 surface errors from a destructor, and drops run at unpredictable \
                 times (mid-panic, mid-failover)"
            ),
            suggestion: "move far-memory teardown to an explicit `retire`/`close` \
                         method (Drop should only release local state), or annotate \
                         `// audit: verb-in-drop-ok: <why>`"
                .to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;
    use crate::sketch::extract;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        dataflow_findings(path, &extract(&lex(src)), &AuditConfig::default())
    }

    #[test]
    fn rt_in_loop_flags_serial_verbs_and_honors_adopters() {
        let bad = r#"
fn chase(client: &mut FabricClient, ptrs: &[u64]) {
    for p in ptrs {
        let v = client.read_u64(FarAddr(*p)).unwrap();
    }
}
"#;
        let f = run("crates/core/src/x.rs", bad);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].pass, "rt-in-loop");

        // A structure verb is a serial verb when it is handed a client.
        let struct_verb = r#"
fn get_all(map: &mut FarHashTree, client: &mut FabricClient, keys: &[u64]) -> Result<Vec<Option<u64>>> {
    let mut out = Vec::with_capacity(keys.len());
    for &key in keys {
        out.push(map.get(client, key)?);
    }
    Ok(out)
}
"#;
        let f = run("crates/core/src/x.rs", struct_verb);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("(get)") && f[0].suggestion.contains("get_many"), "{f:?}");

        let batched = r#"
fn chase(client: &mut FabricClient, vec: &FarVec, ranges: &[(u64, u64)]) {
    for chunk in ranges.chunks(32) {
        let v = vec.read_ranges(client, chunk).unwrap();
    }
}
"#;
        assert!(run("crates/core/src/x.rs", batched).is_empty());
    }

    #[test]
    fn rt_in_loop_marker_suppresses() {
        let src = r#"
fn walk(client: &mut FabricClient, mut p: u64) {
    while p != 0 {
        // audit: rt-in-loop-ok: pointer chase — each RT depends on the last
        p = client.read_u64(FarAddr(p)).unwrap();
    }
}
"#;
        assert_eq!(run("crates/core/src/x.rs", src).len(), 1);
        assert!(crate::audit_source("crates/core/src/x.rs", src, &AuditConfig::default()).is_empty());
    }

    #[test]
    fn rt_in_loop_skips_measurement_and_baseline_crates() {
        let src = r#"
fn drive(client: &mut FabricClient, ptrs: &[u64]) {
    for p in ptrs {
        let v = client.read_u64(FarAddr(*p)).unwrap();
    }
}
"#;
        assert!(run("crates/bench/src/bin/e1.rs", src).is_empty());
        assert!(run("crates/baselines/src/list.rs", src).is_empty());
        assert!(!run("crates/serve/src/store.rs", src).is_empty());
    }

    #[test]
    fn lock_across_rt_counts_verbs_between_acquire_and_release() {
        let src = r#"
fn mutate(client: &mut FabricClient, m: &FarMutex, a: FarAddr) -> Result<()> {
    m.lock(client, 100)?;
    client.write_u64(a, 1)?;
    client.write_u64(a, 2)?;
    client.write_u64(a, 3)?;
    client.write_u64(a, 4)?;
    m.unlock(client)?;
    Ok(())
}
"#;
        let f = run("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].pass, "lock-across-rt");

        let short = r#"
fn mutate(client: &mut FabricClient, m: &FarMutex, a: FarAddr) -> Result<()> {
    m.lock(client, 100)?;
    client.write_u64(a, 1)?;
    m.unlock(client)?;
    Ok(())
}
"#;
        assert!(run("crates/core/src/x.rs", short).is_empty());
    }

    #[test]
    fn lock_across_await_always_flags() {
        let src = r#"
async fn mutate(ac: &AsyncClient, m: &FarMutex) -> Result<()> {
    m.lock(client, 100)?;
    ac.read(a, 8).await?;
    m.unlock(client)?;
    Ok(())
}
"#;
        let f = run("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains(".await"));
    }

    #[test]
    fn guard_escape_catches_use_after_scope() {
        let src = r#"
fn escape(client: &mut FabricClient, shared: &SharedReclaim, slot: FarAddr) -> Result<u64> {
    let ptr;
    {
        let guard = pin(shared, client)?;
        ptr = 0;
        let target = client.read_u64(slot)?;
        consume(target);
    }
    let stale = client.read_u64(FarAddr(target))?;
    Ok(stale)
}
"#;
        // `target` derived under the guard, used by a verb after the
        // guard's scope closed.
        let f = run("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].pass, "guard-escape");
    }

    #[test]
    fn guard_escape_allows_use_while_guard_lives_and_drop_kills() {
        let ok = r#"
fn fine(client: &mut FabricClient, shared: &SharedReclaim, slot: FarAddr) -> Result<u64> {
    let guard = pin(shared, client)?;
    let target = client.read_u64(slot)?;
    let v = client.read_u64(FarAddr(target))?;
    drop(guard);
    Ok(v)
}
"#;
        assert!(run("crates/core/src/x.rs", ok).is_empty());

        let bad = r#"
fn late(client: &mut FabricClient, shared: &SharedReclaim, slot: FarAddr) -> Result<u64> {
    let guard = pin(shared, client)?;
    let target = client.read_u64(slot)?;
    drop(guard);
    let v = client.read_u64(FarAddr(target))?;
    Ok(v)
}
"#;
        let f = run("crates/core/src/x.rs", bad);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].pass, "guard-escape");
    }

    /// `read_into` fills a caller buffer instead of returning bytes; both
    /// dataflow passes must still treat it as the read verb it is.
    #[test]
    fn read_into_is_seen_as_a_read_verb() {
        let looped = r#"
fn chase(client: &mut FabricClient, ptrs: &[u64]) {
    let mut raw = [0u8; 32];
    for p in ptrs {
        client.read_into(FarAddr(*p), &mut raw).unwrap();
    }
}
"#;
        let f = run("crates/core/src/x.rs", looped);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].pass, "rt-in-loop");
        assert!(f[0].suggestion.contains("read_ranges"), "{f:?}");

        let late = r#"
fn late(client: &mut FabricClient, shared: &SharedReclaim, slot: FarAddr) -> Result<()> {
    let mut raw = [0u8; 32];
    let guard = pin(shared, client)?;
    let target = client.read_u64(slot)?;
    drop(guard);
    client.read_into(FarAddr(target), &mut raw)?;
    Ok(())
}
"#;
        let f = run("crates/core/src/x.rs", late);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].pass, "guard-escape");
    }

    #[test]
    fn verb_in_drop_flags_only_drop_impls() {
        let src = r#"
impl Drop for Lease {
    fn drop(&mut self) {
        let _ = self.client.write_u64(self.addr, 0);
    }
}
impl Lease {
    fn release(&mut self, client: &mut FabricClient) {
        let _ = client.write_u64(self.addr, 0);
    }
}
"#;
        let f = run("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].pass, "verb-in-drop");
        assert_eq!(f[0].function, "drop");

        // Lock traffic is fabric access too: an RAII lease guard may not
        // release the far lock in its destructor.
        let unlock = r#"
impl Drop for LeaseGuard<'_> {
    fn drop(&mut self) {
        let client = &mut *self.client;
        let _ = self.lock.unlock(client);
    }
}
"#;
        let f = run("crates/baselines/src/x.rs", unlock);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].pass == "verb-in-drop" && f[0].message.contains("lock release"), "{f:?}");
    }
}
