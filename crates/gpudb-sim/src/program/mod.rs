//! Programmable fragment processing: instruction set, assembler, the
//! per-draw span lowering the draw path runs, the per-fragment reference
//! interpreter, and the paper's builtin programs.

pub mod builtin;
pub mod interp;
pub mod isa;
pub(crate) mod lower;
pub mod parser;

pub use interp::{execute, FragmentContext, FragmentInput, ProgramOutput};
pub use isa::{FragmentProgram, Instruction, Opcode};
pub use parser::assemble;
