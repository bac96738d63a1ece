//! Property tests of the cache tag stores: the flat-slab [`L1Cache`] and
//! [`L2Tags`] must answer every operation exactly like a reference model
//! that keeps one `Vec` per set in the straightforward way (push on
//! fill, true LRU by minimum stamp, `swap_remove` on eviction).
//!
//! Runs on the in-repo property harness (`asymfence_common::prop`):
//! failing case seeds persist to `tests/regressions/prop_tags.seeds`
//! and replay before fresh cases. `ASF_PROP_CASES` / `ASF_PROP_SEED`
//! override the budget and base seed.

use asymfence_coherence::dir::L2Tags;
use asymfence_coherence::l1::{Evicted, L1Cache, L1State};
use asymfence_coherence::msg::LineData;
use asymfence_common::ids::LineAddr;
use asymfence_common::prop::{check, pairs, triples, u64s, u8s, usizes, vecs, Config};

const WORDS: usize = 2;

fn prop_cfg(cases: u32) -> Config {
    Config::from_env(cases).regressions("tests/regressions/prop_tags.seeds")
}

/// One reference L1 line.
#[derive(Clone, Debug)]
struct Line {
    line: LineAddr,
    state: L1State,
    data: LineData,
    lru: u64,
}

/// Reference L1: one `Vec` per set.
struct ModelL1 {
    sets: Vec<Vec<Line>>,
    ways: usize,
    clock: u64,
}

impl ModelL1 {
    fn new(sets: usize, ways: usize) -> Self {
        ModelL1 {
            sets: vec![Vec::new(); sets],
            ways,
            clock: 0,
        }
    }

    fn set(&mut self, line: LineAddr) -> &mut Vec<Line> {
        let n = self.sets.len() as u64;
        &mut self.sets[(line.raw() % n) as usize]
    }

    fn lookup(&mut self, line: LineAddr) -> Option<&mut Line> {
        self.clock += 1;
        let clock = self.clock;
        let entry = self.set(line).iter_mut().find(|l| l.line == line)?;
        entry.lru = clock;
        Some(entry)
    }

    fn peek(&mut self, line: LineAddr) -> Option<Line> {
        self.set(line).iter().find(|l| l.line == line).cloned()
    }

    fn insert(&mut self, line: LineAddr, state: L1State, data: LineData) -> Option<Evicted> {
        self.clock += 1;
        let (clock, ways) = (self.clock, self.ways);
        let set = self.set(line);
        if let Some(l) = set.iter_mut().find(|l| l.line == line) {
            *l = Line {
                line,
                state,
                data,
                lru: clock,
            };
            return None;
        }
        let mut evicted = None;
        if set.len() >= ways {
            let pos = (0..set.len()).min_by_key(|&i| set[i].lru).unwrap();
            let victim = set.swap_remove(pos);
            evicted = Some(Evicted {
                line: victim.line,
                dirty: (victim.state == L1State::M).then_some(victim.data),
            });
        }
        set.push(Line {
            line,
            state,
            data,
            lru: clock,
        });
        evicted
    }

    fn invalidate(&mut self, line: LineAddr) -> Option<LineData> {
        let set = self.set(line);
        let pos = set.iter().position(|l| l.line == line)?;
        let victim = set.swap_remove(pos);
        (victim.state == L1State::M).then_some(victim.data)
    }

    fn downgrade(&mut self, line: LineAddr) -> Option<Option<LineData>> {
        let entry = self.set(line).iter_mut().find(|l| l.line == line)?;
        let dirty = (entry.state == L1State::M).then_some(entry.data);
        entry.state = L1State::S;
        Some(dirty)
    }

    fn resident(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

fn state(code: u8) -> L1State {
    [L1State::S, L1State::E, L1State::M][code as usize % 3]
}

/// Runs one operation sequence on both caches, failing on the first
/// differing answer. Ops: 0 insert, 1 lookup, 2 peek, 3 invalidate,
/// 4 downgrade, 5 store through a lookup (as a writable L1 hit does).
fn l1_agrees(sets: usize, ways: usize, ops: &[(u8, u64, (u8, u64))]) -> Result<(), String> {
    let mut l1 = L1Cache::new(sets, ways, WORDS);
    let mut model = ModelL1::new(sets, ways);
    for (i, &(op, raw, (code, value))) in ops.iter().enumerate() {
        let line = LineAddr::from_raw(raw);
        let (got, want) = match op {
            0 => {
                let data = LineData::from_words(&[value, raw]);
                let got = l1.insert(line, state(code), data);
                (
                    format!("{got:?}"),
                    format!("{:?}", model.insert(line, state(code), data)),
                )
            }
            1 => {
                let got = l1.lookup(line).map(|l| (l.state(), l.data.to_vec()));
                let want = model.lookup(line).map(|l| (l.state, l.data.to_vec()));
                (format!("{got:?}"), format!("{want:?}"))
            }
            2 => {
                let got = l1.peek(line).map(|l| (l.line, l.state, l.data.to_vec()));
                let want = model.peek(line).map(|l| (l.line, l.state, l.data.to_vec()));
                (format!("{got:?}"), format!("{want:?}"))
            }
            3 => (
                format!("{:?}", l1.invalidate(line)),
                format!("{:?}", model.invalidate(line)),
            ),
            4 => (
                format!("{:?}", l1.downgrade(line)),
                format!("{:?}", model.downgrade(line)),
            ),
            _ => {
                let got = l1.lookup(line).map(|mut l| {
                    if l.state().writable() {
                        l.data[0] = value;
                        l.set_state(L1State::M);
                    }
                    l.state()
                });
                let want = model.lookup(line).map(|l| {
                    if l.state.writable() {
                        l.data[0] = value;
                        l.state = L1State::M;
                    }
                    l.state
                });
                (format!("{got:?}"), format!("{want:?}"))
            }
        };
        if got != want {
            return Err(format!(
                "op {i} ({op}, line {raw}): slab {got}, model {want}"
            ));
        }
        if l1.resident() != model.resident() {
            return Err(format!(
                "op {i}: {} resident, model {}",
                l1.resident(),
                model.resident()
            ));
        }
    }
    Ok(())
}

/// Random insert/lookup/peek/invalidate/downgrade sequences over 1–4
/// sets × 1–4 ways: every return value and eviction victim matches the
/// reference, and so does the resident count.
#[test]
fn l1_slab_matches_reference_model() {
    let op = triples(u8s(0, 5), u64s(0, 11), pairs(u8s(0, 2), u64s(0, 99)));
    let gen = pairs(pairs(usizes(1, 4), usizes(1, 4)), vecs(op, 1, 80));
    check(
        "l1_slab_matches_reference_model",
        &prop_cfg(256),
        &gen,
        |((sets, ways), ops)| l1_agrees(*sets, *ways, ops),
    );
}

/// A used cache after `reset` evicts exactly like a fresh one.
#[test]
fn l1_reset_matches_a_fresh_cache() {
    let op = triples(u8s(0, 5), u64s(0, 11), pairs(u8s(0, 2), u64s(0, 99)));
    let gen = pairs(pairs(usizes(1, 4), usizes(1, 4)), vecs(op, 1, 40));
    check(
        "l1_reset_matches_a_fresh_cache",
        &prop_cfg(64),
        &gen,
        |((sets, ways), ops)| {
            let mut used = L1Cache::new(*sets, *ways, WORDS);
            for &(_, raw, (code, value)) in ops {
                used.insert(
                    LineAddr::from_raw(raw),
                    state(code),
                    LineData::from_words(&[value, 0]),
                );
            }
            used.reset();
            let mut fresh = L1Cache::new(*sets, *ways, WORDS);
            for &(_, raw, (code, value)) in ops {
                let line = LineAddr::from_raw(raw);
                let data = LineData::from_words(&[value, 1]);
                let (a, b) = (
                    used.insert(line, state(code), data),
                    fresh.insert(line, state(code), data),
                );
                if a != b {
                    return Err(format!(
                        "line {raw}: reset cache evicted {a:?}, fresh {b:?}"
                    ));
                }
            }
            Ok(())
        },
    );
}

/// Reference L2 bank: one `Vec` of `(line, stamp)` per set.
fn l2_model_touch(sets: &mut [Vec<(u64, u64)>], ways: usize, clock: u64, line: u64) -> bool {
    let n = sets.len() as u64;
    let set = &mut sets[(line % n) as usize];
    if let Some(e) = set.iter_mut().find(|e| e.0 == line) {
        e.1 = clock;
        return true;
    }
    if set.len() >= ways {
        let pos = (0..set.len()).min_by_key(|&i| set[i].1).unwrap();
        set.swap_remove(pos);
    }
    set.push((line, clock));
    false
}

/// Random access sequences over 1–4 sets × 1–4 ways: every hit/miss
/// answer of the slab L2 bank matches the reference, across a `reset`.
#[test]
fn l2_tags_match_reference_model() {
    let gen = pairs(pairs(usizes(1, 4), usizes(1, 4)), vecs(u64s(0, 15), 1, 80));
    check(
        "l2_tags_match_reference_model",
        &prop_cfg(256),
        &gen,
        |((sets, ways), lines)| {
            let mut l2 = L2Tags::new(*sets, *ways);
            for round in 0..2 {
                let mut model = vec![Vec::new(); *sets];
                for (i, &line) in lines.iter().enumerate() {
                    let want = l2_model_touch(&mut model, *ways, i as u64 + 1, line);
                    let got = l2.touch(line);
                    if got != want {
                        return Err(format!(
                            "round {round} access {i} (line {line}): hit {got}, model {want}"
                        ));
                    }
                }
                l2.reset();
            }
            Ok(())
        },
    );
}
