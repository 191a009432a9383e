//! # gpudb-sim — a simulated 2004-era programmable GPU
//!
//! This crate is the substrate for a reproduction of Govindaraju, Lloyd,
//! Wang, Lin & Manocha, *Fast Computation of Database Operations using
//! Graphics Processors* (SIGMOD 2004). The paper runs database primitives
//! on an NVIDIA GeForce FX 5900 Ultra through OpenGL; that hardware (and
//! the fixed-function features the algorithms rely on) is not available
//! here, so this crate implements the pipeline itself:
//!
//! * [`texture`] — float textures, the GPU-resident data representation;
//! * [`buffers`] — color, **24-bit** depth, and 8-bit stencil buffers;
//! * [`state`] — alpha/stencil/depth/depth-bounds tests and write masks;
//! * [`program`] — an `ARB_fragment_program`-style ISA with assembler, a
//!   per-draw span lowering and a reference interpreter, plus the paper's
//!   builtin programs;
//! * [`raster`] / `pipeline` — screen-aligned quad rasterization through
//!   a per-draw span kernel that keeps the authentic per-fragment test
//!   sequence, with early-z modeling; a draw's framebuffer row tiles run
//!   on the calling thread and a pool of persistent host workers (`pool`);
//! * [`device`] — the stateful [`device::Gpu`] facade with occlusion
//!   queries and costed transfers;
//! * [`log`] — the device event log that pass plans ([`trace`]) and span
//!   trees are derived from;
//! * [`cost`] / [`stats`] — a cycle cost model calibrated against the
//!   paper's published anchors, so that modeled timings reproduce the
//!   paper's performance *shapes* even though the simulator itself runs on
//!   a CPU.
//!
//! ## Example
//!
//! ```
//! use gpudb_sim::device::Gpu;
//! use gpudb_sim::state::CompareFunc;
//! use gpudb_sim::texture::{Texture, TextureFormat};
//! use gpudb_sim::buffers::DEPTH_SCALE;
//!
//! // A 4-pixel device holding one attribute.
//! let mut gpu = Gpu::geforce_fx_5900(4, 1);
//! let tex = Texture::from_data(4, 1, TextureFormat::R,
//!     vec![10.0, 20.0, 30.0, 40.0]).unwrap();
//! let id = gpu.create_texture(tex).unwrap();
//!
//! // Copy the attribute into the depth buffer, then count values > 25
//! // with a depth-tested quad and an occlusion query.
//! gpu.bind_texture(0, Some(id)).unwrap();
//! gpu.bind_program(Some(gpudb_sim::program::builtin::copy_to_depth()));
//! gpu.set_program_env(0, [1.0 / DEPTH_SCALE as f32, 0.0, 0.0, 0.0]).unwrap();
//! gpu.set_program_env(1, [1.0, 0.0, 0.0, 0.0]).unwrap();
//! gpu.set_depth_test(true, CompareFunc::Always);
//! gpu.set_depth_write(true);
//! gpu.draw_full_quad(0.0).unwrap();
//!
//! gpu.bind_program(None);
//! gpu.set_depth_write(false);
//! gpu.set_depth_test(true, CompareFunc::Less); // 25 < stored attribute
//! gpu.begin_occlusion_query().unwrap();
//! gpu.draw_full_quad(25.0 / DEPTH_SCALE as f32).unwrap();
//! assert_eq!(gpu.end_occlusion_query().unwrap(), 2);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]
// Fallible device paths must surface typed errors, not panic: unwrap is
// banned in library code (tests may unwrap freely).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod buffers;
pub mod cost;
pub mod device;
pub mod error;
pub mod fault;
pub mod log;
mod mipmap;
mod pipeline;
mod pool;
pub mod program;
pub mod raster;
pub mod span;
pub mod state;
pub mod stats;
pub mod texture;
pub mod trace;

pub use cost::{DrawCost, HardwareProfile};
pub use device::Gpu;
pub use error::{FaultClass, GpuError, GpuResult};
pub use fault::{FaultEvent, FaultInjector, FaultKind, FaultStats};
pub use log::{DeviceLog, RecordMode};
pub use mipmap::MipmapReduction;
pub use raster::Rect;
pub use span::SpanKind;
pub use state::{CompareFunc, StencilOp};
pub use stats::{GpuStats, Phase, PhaseNanos, PhaseTimes, WorkCounters};
pub use texture::{Texture, TextureFormat, TextureId};
pub use trace::{DeviceCaps, DrawPass, PassOp, PassPlan, ProgramInfo};
