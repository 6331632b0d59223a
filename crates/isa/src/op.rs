//! Opcodes, execution classes, latencies, and ALU semantics.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Condition of a conditional branch, comparing `src1` against `src2`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum BrCond {
    /// Taken if `src1 == src2`.
    Eq,
    /// Taken if `src1 != src2`.
    Ne,
    /// Taken if `src1 < src2` (signed).
    Lt,
    /// Taken if `src1 >= src2` (signed).
    Ge,
}

impl BrCond {
    /// All branch conditions, for exhaustive iteration (tests, random
    /// program generation).
    pub const ALL: [BrCond; 4] = [BrCond::Eq, BrCond::Ne, BrCond::Lt, BrCond::Ge];

    /// Evaluates the branch condition on two operand values.
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            BrCond::Eq => a == b,
            BrCond::Ne => a != b,
            BrCond::Lt => (a as i64) < (b as i64),
            BrCond::Ge => (a as i64) >= (b as i64),
        }
    }

    /// Mnemonic suffix (`eq`, `ne`, ...).
    pub fn mnemonic(self) -> &'static str {
        match self {
            BrCond::Eq => "eq",
            BrCond::Ne => "ne",
            BrCond::Lt => "lt",
            BrCond::Ge => "ge",
        }
    }
}

/// Instruction opcodes.
///
/// The set is deliberately small — a classic load/store RISC — but covers
/// every structural case mini-graph formation cares about: single-cycle
/// ALU operations, multi-cycle "complex" operations, loads, stores,
/// conditional branches, and unconditional control (jumps, calls, returns).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Opcode {
    // --- register-register ALU ---
    /// `dest = src1 + src2`
    Add,
    /// `dest = src1 - src2`
    Sub,
    /// `dest = src1 & src2`
    And,
    /// `dest = src1 | src2`
    Or,
    /// `dest = src1 ^ src2`
    Xor,
    /// `dest = src1 << (src2 & 63)`
    Shl,
    /// `dest = src1 >> (src2 & 63)` (logical)
    Shr,
    /// `dest = (src1 < src2) as u64` (signed)
    CmpLt,
    /// `dest = (src1 == src2) as u64`
    CmpEq,
    // --- register-immediate ALU ---
    /// `dest = src1 + imm`
    AddI,
    /// `dest = src1 & imm`
    AndI,
    /// `dest = src1 | imm`
    OrI,
    /// `dest = src1 ^ imm`
    XorI,
    /// `dest = src1 << (imm & 63)`
    ShlI,
    /// `dest = src1 >> (imm & 63)` (logical)
    ShrI,
    /// `dest = (src1 < imm) as u64` (signed)
    CmpLtI,
    /// `dest = imm` (load immediate)
    LoadImm,
    // --- complex integer ---
    /// `dest = src1 * src2` (multi-cycle)
    Mul,
    /// `dest = src1 / src2` (multi-cycle; division by zero yields 0)
    Div,
    // --- memory ---
    /// `dest = mem[src1 + imm]`
    Load,
    /// `mem[src1 + imm] = src2`
    Store,
    // --- control ---
    /// Conditional branch to `target` comparing `src1` vs `src2`.
    Br(BrCond),
    /// Unconditional direct jump to `target`.
    Jmp,
    /// Direct call: writes the return linkage into [`Reg::LINK`] and
    /// transfers to the target function's entry block.
    ///
    /// [`Reg::LINK`]: crate::Reg::LINK
    Call,
    /// Indirect return via [`Reg::LINK`].
    ///
    /// [`Reg::LINK`]: crate::Reg::LINK
    Ret,
    /// Terminates the program (valid only in the top-level function).
    Halt,
    /// No operation.
    Nop,
}

/// Functional-unit class an instruction executes on.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum ExecClass {
    /// Single-cycle integer ALU (includes branch condition evaluation).
    SimpleInt,
    /// Multi-cycle integer (multiply/divide).
    ComplexInt,
    /// Load port (address generation + data cache access).
    Load,
    /// Store port.
    Store,
}

impl fmt::Display for ExecClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ExecClass::SimpleInt => "simple",
            ExecClass::ComplexInt => "complex",
            ExecClass::Load => "load",
            ExecClass::Store => "store",
        };
        f.write_str(s)
    }
}

impl Opcode {
    /// All register-register ALU opcodes (two register sources, one
    /// destination), including the multi-cycle complex ones. Exhaustive
    /// iteration support for tests and random program generation.
    pub const ALU_RR: [Opcode; 11] = [
        Opcode::Add,
        Opcode::Sub,
        Opcode::And,
        Opcode::Or,
        Opcode::Xor,
        Opcode::Shl,
        Opcode::Shr,
        Opcode::CmpLt,
        Opcode::CmpEq,
        Opcode::Mul,
        Opcode::Div,
    ];

    /// All register-immediate ALU opcodes (one register source, one
    /// destination). `LoadImm` is excluded: it reads no register and has
    /// its own constructor shape.
    pub const ALU_RI: [Opcode; 7] = [
        Opcode::AddI,
        Opcode::AndI,
        Opcode::OrI,
        Opcode::XorI,
        Opcode::ShlI,
        Opcode::ShrI,
        Opcode::CmpLtI,
    ];

    /// Execution class (which issue port / functional unit services it).
    ///
    /// Control instructions evaluate on simple ALUs, as in the paper's
    /// simulated machines.
    pub fn exec_class(self) -> ExecClass {
        use Opcode::*;
        match self {
            Mul | Div => ExecClass::ComplexInt,
            Load => ExecClass::Load,
            Store => ExecClass::Store,
            _ => ExecClass::SimpleInt,
        }
    }

    /// Execution latency in cycles, *excluding* any memory hierarchy
    /// latency. Loads take `latency()` for address generation; the data
    /// cache access time is added by the timing model.
    pub fn latency(self) -> u32 {
        use Opcode::*;
        match self {
            Mul => 3,
            Div => 12,
            _ => 1,
        }
    }

    /// Optimistic end-to-end latency used when statically bounding a
    /// mini-graph's execution latency: loads are assumed to hit in the
    /// L1 data cache.
    pub fn optimistic_latency(self, l1_hit: u32) -> u32 {
        match self {
            Opcode::Load => l1_hit,
            op => op.latency(),
        }
    }

    /// Whether the instruction writes a destination register.
    ///
    /// Note `Call` writes [`Reg::LINK`] implicitly; it reports `true`.
    ///
    /// [`Reg::LINK`]: crate::Reg::LINK
    pub fn has_dest(self) -> bool {
        use Opcode::*;
        !matches!(self, Store | Br(_) | Jmp | Ret | Halt | Nop)
    }

    /// Number of register sources the opcode reads (0, 1, or 2).
    pub fn num_srcs(self) -> usize {
        use Opcode::*;
        match self {
            LoadImm | Jmp | Call | Halt | Nop => 0,
            AddI | AndI | OrI | XorI | ShlI | ShrI | CmpLtI | Load | Ret => 1,
            Store | Br(_) => 2,
            Add | Sub | And | Or | Xor | Shl | Shr | CmpLt | CmpEq | Mul | Div => 2,
        }
    }

    /// Whether the instruction references memory.
    pub fn is_mem(self) -> bool {
        matches!(self, Opcode::Load | Opcode::Store)
    }

    /// Whether the instruction is a load.
    pub fn is_load(self) -> bool {
        matches!(self, Opcode::Load)
    }

    /// Whether the instruction is a store.
    pub fn is_store(self) -> bool {
        matches!(self, Opcode::Store)
    }

    /// Whether the instruction transfers control (branch, jump, call,
    /// return, or halt).
    pub fn is_control(self) -> bool {
        use Opcode::*;
        matches!(self, Br(_) | Jmp | Call | Ret | Halt)
    }

    /// Whether the instruction is a conditional branch.
    pub fn is_cond_branch(self) -> bool {
        matches!(self, Opcode::Br(_))
    }

    /// Whether control *always* leaves the fall-through path (unconditional
    /// transfers).
    pub fn is_uncond_control(self) -> bool {
        use Opcode::*;
        matches!(self, Jmp | Call | Ret | Halt)
    }

    /// Whether this opcode may be a mini-graph constituent.
    ///
    /// `Call`/`Ret`/`Halt` cross function boundaries and are excluded.
    /// Multi-cycle complex operations (`Mul`/`Div`) are excluded because
    /// mini-graph constituents execute on *ALU pipelines* — chains of
    /// simple single-cycle ALUs. Everything else (including conditional
    /// branches and direct jumps, which form a mini-graph's single
    /// control transfer, and memory operations, which use a cache port)
    /// is eligible.
    pub fn mg_eligible(self) -> bool {
        use Opcode::*;
        !matches!(self, Call | Ret | Halt | Nop | Mul | Div)
    }

    /// Mnemonic for display.
    pub fn mnemonic(self) -> String {
        use Opcode::*;
        match self {
            Add => "add".into(),
            Sub => "sub".into(),
            And => "and".into(),
            Or => "or".into(),
            Xor => "xor".into(),
            Shl => "shl".into(),
            Shr => "shr".into(),
            CmpLt => "cmplt".into(),
            CmpEq => "cmpeq".into(),
            AddI => "addi".into(),
            AndI => "andi".into(),
            OrI => "ori".into(),
            XorI => "xori".into(),
            ShlI => "shli".into(),
            ShrI => "shri".into(),
            CmpLtI => "cmplti".into(),
            LoadImm => "li".into(),
            Mul => "mul".into(),
            Div => "div".into(),
            Load => "ld".into(),
            Store => "st".into(),
            Br(c) => format!("b{}", c.mnemonic()),
            Jmp => "jmp".into(),
            Call => "call".into(),
            Ret => "ret".into(),
            Halt => "halt".into(),
            Nop => "nop".into(),
        }
    }
}

/// Evaluates a (non-memory, non-control) ALU opcode.
///
/// `a` and `b` are the values of `src1` and `src2` (zero where absent);
/// `imm` is the instruction immediate. Division by zero yields 0, matching
/// the functional executor's total semantics.
///
/// # Panics
///
/// Panics if called with a memory or control opcode.
pub fn eval_alu(op: Opcode, a: u64, b: u64, imm: i64) -> u64 {
    use Opcode::*;
    match op {
        Add => a.wrapping_add(b),
        Sub => a.wrapping_sub(b),
        And => a & b,
        Or => a | b,
        Xor => a ^ b,
        Shl => a.wrapping_shl((b & 63) as u32),
        Shr => a.wrapping_shr((b & 63) as u32),
        CmpLt => ((a as i64) < (b as i64)) as u64,
        CmpEq => (a == b) as u64,
        AddI => a.wrapping_add(imm as u64),
        AndI => a & (imm as u64),
        OrI => a | (imm as u64),
        XorI => a ^ (imm as u64),
        ShlI => a.wrapping_shl((imm & 63) as u32),
        ShrI => a.wrapping_shr((imm & 63) as u32),
        CmpLtI => ((a as i64) < imm) as u64,
        LoadImm => imm as u64,
        Mul => a.wrapping_mul(b),
        Div => {
            if b == 0 {
                0
            } else {
                a.wrapping_div(b)
            }
        }
        Nop => 0,
        other => panic!("eval_alu called on non-ALU opcode {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_and_latencies() {
        assert_eq!(Opcode::Add.exec_class(), ExecClass::SimpleInt);
        assert_eq!(Opcode::Mul.exec_class(), ExecClass::ComplexInt);
        assert_eq!(Opcode::Load.exec_class(), ExecClass::Load);
        assert_eq!(Opcode::Store.exec_class(), ExecClass::Store);
        assert_eq!(Opcode::Br(BrCond::Eq).exec_class(), ExecClass::SimpleInt);
        assert_eq!(Opcode::Add.latency(), 1);
        assert_eq!(Opcode::Mul.latency(), 3);
        assert_eq!(Opcode::Div.latency(), 12);
    }

    #[test]
    fn optimistic_latency_uses_l1_hit_for_loads() {
        assert_eq!(Opcode::Load.optimistic_latency(3), 3);
        assert_eq!(Opcode::Add.optimistic_latency(3), 1);
        assert_eq!(Opcode::Mul.optimistic_latency(3), 3);
    }

    #[test]
    fn dest_and_src_shape() {
        assert!(Opcode::Add.has_dest());
        assert!(Opcode::Load.has_dest());
        assert!(Opcode::Call.has_dest()); // writes LINK
        assert!(!Opcode::Store.has_dest());
        assert!(!Opcode::Br(BrCond::Lt).has_dest());
        assert_eq!(Opcode::Store.num_srcs(), 2);
        assert_eq!(Opcode::Load.num_srcs(), 1);
        assert_eq!(Opcode::LoadImm.num_srcs(), 0);
        assert_eq!(Opcode::Ret.num_srcs(), 1);
    }

    #[test]
    fn control_classification() {
        assert!(Opcode::Br(BrCond::Eq).is_control());
        assert!(Opcode::Br(BrCond::Eq).is_cond_branch());
        assert!(!Opcode::Br(BrCond::Eq).is_uncond_control());
        assert!(Opcode::Jmp.is_uncond_control());
        assert!(Opcode::Ret.is_uncond_control());
        assert!(!Opcode::Add.is_control());
    }

    #[test]
    fn opcode_families_are_consistent() {
        for op in Opcode::ALU_RR {
            assert_eq!(op.num_srcs(), 2, "{op:?}");
            assert!(op.has_dest(), "{op:?}");
            assert!(!op.is_mem() && !op.is_control(), "{op:?}");
        }
        for op in Opcode::ALU_RI {
            assert_eq!(op.num_srcs(), 1, "{op:?}");
            assert!(op.has_dest(), "{op:?}");
            assert!(!op.is_mem() && !op.is_control(), "{op:?}");
        }
        for c in BrCond::ALL {
            assert!(Opcode::Br(c).is_cond_branch());
        }
    }

    #[test]
    fn mg_eligibility() {
        assert!(Opcode::Add.mg_eligible());
        assert!(Opcode::Load.mg_eligible());
        assert!(Opcode::Br(BrCond::Ne).mg_eligible());
        assert!(Opcode::Jmp.mg_eligible());
        assert!(!Opcode::Call.mg_eligible());
        assert!(!Opcode::Ret.mg_eligible());
        assert!(!Opcode::Halt.mg_eligible());
        assert!(!Opcode::Nop.mg_eligible());
    }

    #[test]
    fn branch_condition_semantics() {
        assert!(BrCond::Eq.eval(4, 4));
        assert!(!BrCond::Eq.eval(4, 5));
        assert!(BrCond::Ne.eval(4, 5));
        assert!(BrCond::Lt.eval(u64::MAX, 0)); // -1 < 0 signed
        assert!(BrCond::Ge.eval(0, u64::MAX)); // 0 >= -1 signed
    }

    #[test]
    fn alu_semantics() {
        assert_eq!(eval_alu(Opcode::Add, 2, 3, 0), 5);
        assert_eq!(eval_alu(Opcode::Sub, 2, 3, 0), u64::MAX);
        assert_eq!(eval_alu(Opcode::AddI, 10, 0, -4), 6);
        assert_eq!(eval_alu(Opcode::ShlI, 1, 0, 8), 256);
        assert_eq!(eval_alu(Opcode::CmpLt, u64::MAX, 1, 0), 1);
        assert_eq!(eval_alu(Opcode::Div, 7, 2, 0), 3);
        assert_eq!(eval_alu(Opcode::Div, 7, 0, 0), 0);
        assert_eq!(eval_alu(Opcode::LoadImm, 0, 0, -9), (-9i64) as u64);
        assert_eq!(eval_alu(Opcode::Mul, 1 << 40, 1 << 40, 0), 0); // wraps
    }

    #[test]
    #[should_panic(expected = "non-ALU opcode")]
    fn eval_alu_rejects_memory_ops() {
        let _ = eval_alu(Opcode::Load, 0, 0, 0);
    }
}
