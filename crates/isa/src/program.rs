//! Whole-program representation and static instruction layout.

use crate::block::{BasicBlock, BlockId};
use crate::error::IsaError;
use crate::validate;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Identifier of a function within a [`Program`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FuncId(pub u32);

impl FuncId {
    /// The function's index into the program's function table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn{}", self.0)
    }
}

impl fmt::Debug for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn{}", self.0)
    }
}

/// Program-unique identifier of a static instruction.
///
/// Assigned densely by [`Program::new`] in block order; profiles, selection
/// scores, and mini-graph maps are all keyed by `StaticId`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct StaticId(pub u32);

impl StaticId {
    /// Dense index of the static instruction.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StaticId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl fmt::Debug for StaticId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Position of a static instruction: its block and index within the block.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct InstrLoc {
    /// Containing block.
    pub block: BlockId,
    /// Index within the block's instruction list.
    pub idx: u32,
}

/// A function: an entry block plus the contiguous range of pool blocks it
/// owns.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Function {
    /// Human-readable name.
    pub name: String,
    /// Entry block.
    pub entry: BlockId,
    /// Blocks belonging to this function (indices into the program pool).
    pub blocks: Vec<BlockId>,
}

/// A whole program: a pool of basic blocks partitioned into functions,
/// with a computed static-instruction layout.
///
/// Programs are immutable once constructed; the mini-graph rewriter
/// produces a *new* program rather than mutating in place.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Program {
    name: String,
    blocks: Vec<BasicBlock>,
    funcs: Vec<Function>,
    entry_func: FuncId,
    // --- computed layout ---
    first_id: Vec<u32>,  // per block: StaticId of its first instruction
    locs: Vec<InstrLoc>, // per StaticId
    pcs: Vec<u64>,       // per StaticId (handles get main-line PCs, tagged
    // constituents get outlined-region PCs)
    block_of_func: BTreeMap<u32, FuncId>, // block index -> owning function
    main_line_len: u32,                   // number of main-line fetch slots
}

/// Byte size of one encoded instruction.
pub const INST_BYTES: u64 = 4;

/// Base address of the text segment.
pub const TEXT_BASE: u64 = 0x1_0000;

impl Program {
    /// Assembles a program from its parts, validating structure and
    /// computing the static layout.
    ///
    /// # Errors
    ///
    /// Returns an [`IsaError`] describing the first structural problem
    /// found (empty blocks, misplaced control instructions, dangling
    /// targets, malformed mini-graph tags, ...).
    pub fn new(
        name: impl Into<String>,
        blocks: Vec<BasicBlock>,
        funcs: Vec<Function>,
        entry_func: FuncId,
    ) -> Result<Program, IsaError> {
        let mut prog = Program {
            name: name.into(),
            blocks,
            funcs,
            entry_func,
            first_id: Vec::new(),
            locs: Vec::new(),
            pcs: Vec::new(),
            block_of_func: BTreeMap::new(),
            main_line_len: 0,
        };
        validate::validate(&prog.blocks, &prog.funcs, prog.entry_func)?;
        prog.compute_layout();
        Ok(prog)
    }

    fn compute_layout(&mut self) {
        self.first_id.clear();
        self.locs.clear();
        self.block_of_func.clear();
        let mut next = 0u32;
        for (bi, block) in self.blocks.iter().enumerate() {
            self.first_id.push(next);
            for idx in 0..block.insts.len() {
                self.locs.push(InstrLoc {
                    block: BlockId(bi as u32),
                    idx: idx as u32,
                });
                next += 1;
            }
        }
        for (fi, func) in self.funcs.iter().enumerate() {
            for &b in &func.blocks {
                self.block_of_func.insert(b.0, FuncId(fi as u32));
            }
        }
        // Main-line PCs: every instruction that is either untagged or the
        // position-0 handle slot of a mini-graph instance occupies one
        // main-line slot, laid out block after block. Tagged constituents
        // at positions > 0 live in the outlined region that follows the
        // main line (mirroring the "outlining" encoding scheme: the main
        // line holds one handle/jump slot per instance).
        self.pcs = vec![0; self.locs.len()];
        let mut pc = TEXT_BASE;
        // Two passes over the flattened instruction list keep this simple.
        let mut flat: Vec<(usize, bool)> = Vec::with_capacity(self.locs.len());
        for (id, loc) in self.locs.iter().enumerate() {
            let inst = &self.blocks[loc.block.index()].insts[loc.idx as usize];
            let main_line = inst.mg.map(|t| t.pos == 0).unwrap_or(true);
            flat.push((id, main_line));
        }
        for &(id, main_line) in &flat {
            if main_line {
                self.pcs[id] = pc;
                pc += INST_BYTES;
            }
        }
        self.main_line_len = ((pc - TEXT_BASE) / INST_BYTES) as u32;
        // Outlined region: constituents of each instance packed after the
        // main line, in instance order. Each instance also conceptually
        // carries a trailing return jump; one extra slot per instance is
        // reserved so outlined footprints are realistic.
        let mut outlined_cursor = pc;
        let mut instance_base: HashMap<u32, u64> = HashMap::new();
        for &(id, main_line) in &flat {
            if main_line {
                continue;
            }
            let loc = self.locs[id];
            let tag = self.blocks[loc.block.index()].insts[loc.idx as usize]
                .mg
                .expect("non-main-line instruction must be tagged");
            let base = *instance_base.entry(tag.instance).or_insert_with(|| {
                let b = outlined_cursor;
                // handle slot + (len-1) constituents + return jump
                outlined_cursor += INST_BYTES * (tag.len as u64 + 1);
                b
            });
            self.pcs[id] = base + INST_BYTES * tag.pos as u64;
        }
    }

    /// The program's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The basic-block pool.
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// A block by id.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    /// The function table.
    pub fn funcs(&self) -> &[Function] {
        &self.funcs
    }

    /// A function by id.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.index()]
    }

    /// The program's entry function.
    pub fn entry_func(&self) -> FuncId {
        self.entry_func
    }

    /// The function owning a block.
    pub fn func_of_block(&self, block: BlockId) -> FuncId {
        self.block_of_func[&block.0]
    }

    /// Total number of static instructions.
    pub fn static_count(&self) -> usize {
        self.locs.len()
    }

    /// Number of main-line fetch slots (instance constituents beyond the
    /// handle are outlined and do not occupy main-line instruction cache
    /// space).
    pub fn main_line_len(&self) -> u32 {
        self.main_line_len
    }

    /// The static id of instruction `idx` of `block`.
    pub fn id_of(&self, block: BlockId, idx: usize) -> StaticId {
        debug_assert!(idx < self.blocks[block.index()].insts.len());
        StaticId(self.first_id[block.index()] + idx as u32)
    }

    /// The location of a static instruction.
    pub fn loc_of(&self, id: StaticId) -> InstrLoc {
        self.locs[id.index()]
    }

    /// The instruction with the given static id.
    pub fn inst(&self, id: StaticId) -> &crate::Instruction {
        let loc = self.locs[id.index()];
        &self.blocks[loc.block.index()].insts[loc.idx as usize]
    }

    /// The fetch address of a static instruction. Handles and untagged
    /// instructions have main-line addresses; outlined constituents have
    /// addresses in the outlined region past the main line.
    pub fn pc_of(&self, id: StaticId) -> u64 {
        self.pcs[id.index()]
    }

    /// Iterates over the static ids of a block's instructions.
    pub fn block_ids(&self, block: BlockId) -> impl Iterator<Item = StaticId> + '_ {
        let first = self.first_id[block.index()];
        let len = self.blocks[block.index()].insts.len() as u32;
        (first..first + len).map(StaticId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Instruction, MgTag};
    use crate::reg::Reg;

    fn tiny_program() -> Program {
        // main: b0 -> b1(halt)
        let mut b0 = BasicBlock::new();
        b0.push(Instruction::li(Reg::R1, 1));
        b0.push(Instruction::addi(Reg::R2, Reg::R1, 1));
        b0.fallthrough = Some(BlockId(1));
        let mut b1 = BasicBlock::new();
        b1.push(Instruction::halt());
        Program::new(
            "tiny",
            vec![b0, b1],
            vec![Function {
                name: "main".into(),
                entry: BlockId(0),
                blocks: vec![BlockId(0), BlockId(1)],
            }],
            FuncId(0),
        )
        .unwrap()
    }

    #[test]
    fn static_ids_are_dense_and_ordered() {
        let p = tiny_program();
        assert_eq!(p.static_count(), 3);
        assert_eq!(p.id_of(BlockId(0), 0), StaticId(0));
        assert_eq!(p.id_of(BlockId(0), 1), StaticId(1));
        assert_eq!(p.id_of(BlockId(1), 0), StaticId(2));
        let loc = p.loc_of(StaticId(1));
        assert_eq!(loc.block, BlockId(0));
        assert_eq!(loc.idx, 1);
    }

    #[test]
    fn pcs_are_contiguous_without_minigraphs() {
        let p = tiny_program();
        assert_eq!(p.pc_of(StaticId(0)), TEXT_BASE);
        assert_eq!(p.pc_of(StaticId(1)), TEXT_BASE + INST_BYTES);
        assert_eq!(p.pc_of(StaticId(2)), TEXT_BASE + 2 * INST_BYTES);
        assert_eq!(p.main_line_len(), 3);
    }

    #[test]
    fn tagged_constituents_are_outlined() {
        let tag = |pos| MgTag {
            instance: 0,
            template: 0,
            pos,
            len: 2,
        };
        let mut b0 = BasicBlock::new();
        b0.push(Instruction::li(Reg::R1, 1).with_mg(tag(0)));
        b0.push(Instruction::addi(Reg::R2, Reg::R1, 1).with_mg(tag(1)));
        b0.push(Instruction::halt());
        let p = Program::new(
            "mg",
            vec![b0],
            vec![Function {
                name: "main".into(),
                entry: BlockId(0),
                blocks: vec![BlockId(0)],
            }],
            FuncId(0),
        )
        .unwrap();
        // Main line: handle slot + halt = 2 slots.
        assert_eq!(p.main_line_len(), 2);
        assert_eq!(p.pc_of(StaticId(0)), TEXT_BASE);
        assert_eq!(p.pc_of(StaticId(2)), TEXT_BASE + INST_BYTES);
        // Constituent 1 lives in the outlined region past the main line.
        assert!(p.pc_of(StaticId(1)) >= TEXT_BASE + 2 * INST_BYTES);
    }

    #[test]
    fn func_of_block_resolves() {
        let p = tiny_program();
        assert_eq!(p.func_of_block(BlockId(1)), FuncId(0));
    }

    #[test]
    fn block_ids_iterates_block_instructions() {
        let p = tiny_program();
        let ids: Vec<StaticId> = p.block_ids(BlockId(0)).collect();
        assert_eq!(ids, vec![StaticId(0), StaticId(1)]);
    }
}

#[cfg(test)]
mod layout_tests {
    use super::*;
    use crate::inst::Instruction;
    use crate::reg::Reg;

    /// Main-line PCs are strictly increasing by the instruction size.
    #[test]
    fn main_line_pcs_are_contiguous_across_blocks() {
        let mut pb = crate::ProgramBuilder::new("pcs");
        let f = pb.func("main");
        let b0 = pb.block(f);
        let b1 = pb.block(f);
        pb.push(b0, Instruction::li(Reg::R1, 1));
        pb.push(b0, Instruction::li(Reg::R2, 2));
        pb.set_fallthrough(b0, b1);
        pb.push(b1, Instruction::halt());
        let p = pb.build().unwrap();
        let pcs: Vec<u64> = (0..p.static_count())
            .map(|i| p.pc_of(StaticId(i as u32)))
            .collect();
        for w in pcs.windows(2) {
            assert_eq!(w[1], w[0] + INST_BYTES);
        }
        assert_eq!(pcs[0], TEXT_BASE);
    }

    #[test]
    fn loc_and_id_are_inverse() {
        let mut pb = crate::ProgramBuilder::new("inv");
        let f = pb.func("main");
        let b = pb.block(f);
        for i in 0..5 {
            pb.push(b, Instruction::li(Reg::new(1 + i), i as i64));
        }
        pb.push(b, Instruction::halt());
        let p = pb.build().unwrap();
        for i in 0..p.static_count() {
            let id = StaticId(i as u32);
            let loc = p.loc_of(id);
            assert_eq!(p.id_of(loc.block, loc.idx as usize), id);
        }
    }
}
