//! `nqueens` — count all placements of `n` queens. Search-tree
//! parallelism with list-allocated board paths (GC churn without any
//! shared mutation).

use mpl_baselines::{SeqRuntime, SeqValue};
use mpl_runtime::{Mutator, Value};

use crate::Benchmark;

/// Rows explored in parallel before switching to sequential search.
const PAR_ROWS: usize = 3;

/// The benchmark.
pub struct Nqueens;

#[derive(Clone, Copy)]
struct State {
    n: usize,
    row: usize,
    cols: u32,
    diag1: u32,
    diag2: u32,
}

impl State {
    fn initial(n: usize) -> State {
        State {
            n,
            row: 0,
            cols: 0,
            diag1: 0,
            diag2: 0,
        }
    }

    fn candidates(&self) -> Vec<u32> {
        let full = (1u32 << self.n) - 1;
        let mut free = full & !(self.cols | self.diag1 | self.diag2);
        let mut out = Vec::new();
        while free != 0 {
            let bit = free & free.wrapping_neg();
            out.push(bit);
            free ^= bit;
        }
        out
    }

    fn place(&self, bit: u32) -> State {
        State {
            n: self.n,
            row: self.row + 1,
            cols: self.cols | bit,
            diag1: (self.diag1 | bit) << 1,
            diag2: (self.diag2 | bit) >> 1,
        }
    }
}

// ---- mpl ----------------------------------------------------------------

fn solve_mpl(m: &mut Mutator<'_>, st: State, board: Value) -> i64 {
    if st.row == st.n {
        return 1;
    }
    let cands = st.candidates();
    if st.row < PAR_ROWS && cands.len() > 1 {
        split_mpl(m, st, board, &cands)
    } else {
        let mut total = 0;
        let mark = m.mark();
        let keep = m.root(board);
        for bit in cands {
            let b = m.get(&keep);
            let board2 = m.alloc_tuple(&[Value::Int(bit as i64), b]);
            total += solve_mpl(m, st.place(bit), board2);
        }
        m.release(mark);
        m.work(1);
        total
    }
}

fn split_mpl(m: &mut Mutator<'_>, st: State, board: Value, cands: &[u32]) -> i64 {
    if cands.len() == 1 {
        let mark = m.mark();
        let keep = m.root(board);
        let b = m.get(&keep);
        let board2 = m.alloc_tuple(&[Value::Int(cands[0] as i64), b]);
        let total = solve_mpl(m, st.place(cands[0]), board2);
        m.release(mark);
        return total;
    }
    let (lo, hi) = cands.split_at(cands.len() / 2);
    let mark = m.mark();
    let keep = m.root(board);
    let (lv, hv) = m.fork(
        |m| {
            let b = m.get(&keep);
            Value::Int(split_mpl(m, st, b, lo))
        },
        |m| {
            let b = m.get(&keep);
            Value::Int(split_mpl(m, st, b, hi))
        },
    );
    m.release(mark);
    lv.expect_int() + hv.expect_int()
}

// ---- sequential baseline --------------------------------------------------

fn solve_seq(rt: &mut SeqRuntime, st: State, board: SeqValue) -> i64 {
    if st.row == st.n {
        return 1;
    }
    let mut total = 0;
    let mark = rt.mark();
    let keep = rt.root(board);
    for bit in st.candidates() {
        let b = rt.get(keep);
        let b = if matches!(board, SeqValue::Obj(_)) {
            b
        } else {
            board
        };
        let board2 = rt.alloc(&[SeqValue::Int(bit as i64), b]);
        total += solve_seq(rt, st.place(bit), board2);
    }
    rt.release(mark);
    rt.work(1);
    total
}

// ---- native ------------------------------------------------------------------

fn solve_native(st: State) -> i64 {
    if st.row == st.n {
        return 1;
    }
    st.candidates()
        .into_iter()
        .map(|bit| solve_native(st.place(bit)))
        .sum()
}

impl Benchmark for Nqueens {
    fn name(&self) -> &'static str {
        "nqueens"
    }

    fn entangled(&self) -> bool {
        false
    }

    fn default_n(&self) -> usize {
        9
    }

    fn small_n(&self) -> usize {
        6
    }

    fn scaled_n(&self, pct: usize) -> usize {
        if pct >= 100 {
            self.default_n()
        } else if pct >= 40 {
            self.default_n() - 1
        } else {
            self.default_n() - 2
        }
    }

    fn run_mpl(&self, m: &mut Mutator<'_>, n: usize) -> i64 {
        solve_mpl(m, State::initial(n), Value::Unit)
    }

    fn run_seq(&self, rt: &mut SeqRuntime, n: usize) -> i64 {
        solve_seq(rt, State::initial(n), SeqValue::Unit)
    }

    fn run_native(&self, n: usize) -> i64 {
        solve_native(State::initial(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_runtime::{Runtime, RuntimeConfig};

    #[test]
    fn checksums_agree() {
        let b = Nqueens;
        for n in [6usize, 8] {
            let native = b.run_native(n);
            let rt = Runtime::new(RuntimeConfig::managed());
            let mpl = rt.run(|m| Value::Int(b.run_mpl(m, n))).expect_int();
            let mut seq = SeqRuntime::default();
            assert_eq!(mpl, native, "n={n}");
            assert_eq!(b.run_seq(&mut seq, n), native, "n={n}");
            assert_eq!(rt.stats().pins, 0);
        }
        assert_eq!(b.run_native(8), 92);
    }
}
