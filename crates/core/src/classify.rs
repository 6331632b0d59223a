//! Structural serialization classification (§4.1–4.2, Figure 4).
//!
//! * **Non-serializing**: every external input feeds the first
//!   constituent. Internal serialization may still occur (constituents
//!   execute in series even when independent), but it is always bounded.
//! * **Bounded**: some external input feeds a later constituent, but each
//!   such serializing input is *upstream* of the register output (there
//!   is an internal dataflow path from its consumer to the output
//!   producer). The output can be delayed by at most the mini-graph's
//!   remaining execution latency.
//! * **Unbounded**: a serializing input feeds a constituent with no path
//!   to the output — if that input arrives `n` cycles late, the output is
//!   delayed by `n` (Figure 4d).

use crate::candidate::CandidateShape;
use serde::{Deserialize, Serialize};

/// Serialization classification of a candidate.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Serialization {
    /// Not vulnerable to external serialization.
    None,
    /// Vulnerable, with delay bounded by the given cycle count.
    Bounded(u32),
    /// Vulnerable to unbounded delay.
    Unbounded,
}

/// Classifies a candidate's serialization exposure from its shape.
pub fn classify(shape: &CandidateShape) -> Serialization {
    if !shape.potentially_serializing() {
        return Serialization::None;
    }
    let Some(out) = shape.output_pos else {
        // No register output to delay: stores/branches are mostly not
        // outputs from the scheduler's perspective (§4.2), so the delay
        // is bounded by the graph's own latency.
        return Serialization::Bounded(shape.total_latency());
    };
    let mut bound = 0u32;
    for &(_, pos) in &shape.ext_inputs {
        if pos == 0 {
            continue;
        }
        if pos <= out && shape.has_path(pos, out) {
            // Upstream of the output: in a singleton execution the output
            // would wait for this input anyway; the extra delay is at most
            // the latency already spent before the consumer runs.
            bound = bound.max(shape.lat_prefix[pos as usize]);
        } else {
            return Serialization::Unbounded;
        }
    }
    Serialization::Bounded(bound.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::{enumerate, SelectionConfig};
    use mg_isa::{Instruction, Program, ProgramBuilder, Reg};

    fn program_of(insts: Vec<Instruction>) -> Program {
        let mut pb = ProgramBuilder::new("t");
        let f = pb.func("main");
        let b = pb.block(f);
        for i in insts {
            pb.push(b, i);
        }
        pb.push(b, Instruction::halt());
        pb.build().unwrap()
    }

    fn find(p: &Program, positions: &[usize]) -> CandidateShape {
        enumerate(p, &SelectionConfig::default())
            .into_iter()
            .find(|c| c.positions == positions)
            .expect("candidate exists")
            .shape
    }

    #[test]
    fn connected_chain_is_non_serializing() {
        let p = program_of(vec![
            Instruction::addi(Reg::R1, Reg::R10, 1),
            Instruction::addi(Reg::R2, Reg::R1, 1),
            Instruction::store(Reg::R11, Reg::R2, 0),
        ]);
        let shape = find(&p, &[0, 1]);
        assert_eq!(classify(&shape), Serialization::None);
    }

    #[test]
    fn upstream_serializing_input_is_bounded() {
        // Figure 4c: input to a mid constituent that feeds the output.
        // 0: r1 = r10 + 1
        // 1: r2 = r1 + r11   <- external input r11 at pos 1 (serializing)
        // 2: r3 = r2 + 1     <- output (consumed by store)
        let p = program_of(vec![
            Instruction::addi(Reg::R1, Reg::R10, 1),
            Instruction::add(Reg::R2, Reg::R1, Reg::R11),
            Instruction::addi(Reg::R3, Reg::R2, 1),
            Instruction::store(Reg::R12, Reg::R3, 0),
        ]);
        let shape = find(&p, &[0, 1, 2]);
        assert_eq!(shape.output_pos, Some(2));
        match classify(&shape) {
            Serialization::Bounded(b) => assert!(b >= 1 && b <= shape.total_latency()),
            other => panic!("expected bounded, got {other:?}"),
        }
    }

    #[test]
    fn downstream_serializing_input_is_unbounded() {
        // Figure 4d: output produced at pos 0; a disconnected later
        // constituent reads an external input.
        // 0: r1 = r10 + 1    <- output (consumed by store at 3)
        // 1: r2 = r11 + 1    <- dead (interior), external input at pos 1
        let p = program_of(vec![
            Instruction::addi(Reg::R1, Reg::R10, 1),
            Instruction::addi(Reg::R2, Reg::R11, 1),
            Instruction::store(Reg::R12, Reg::R1, 0),
        ]);
        let shape = find(&p, &[0, 1]);
        assert_eq!(shape.output_pos, Some(0));
        assert_eq!(classify(&shape), Serialization::Unbounded);
    }

    #[test]
    fn outputless_serializing_graph_is_bounded() {
        // alu + store pair: store's data arrives late, but there is no
        // register output to delay.
        let p = program_of(vec![
            Instruction::addi(Reg::R1, Reg::R10, 1),
            Instruction::store(Reg::R11, Reg::R12, 0),
        ]);
        let shape = find(&p, &[0, 1]);
        assert_eq!(shape.output_pos, None);
        assert!(matches!(classify(&shape), Serialization::Bounded(_)));
    }
}
