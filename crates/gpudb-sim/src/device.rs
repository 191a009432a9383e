//! The device facade: a stateful GPU with textures, a framebuffer, bound
//! fragment programs, and draw calls — the simulated equivalent of an
//! OpenGL context on a GeForce FX 5900 Ultra.

use crate::buffers::Framebuffer;
use crate::cost::{ns, DrawCost, HardwareProfile};
use crate::error::{GpuError, GpuResult};
use crate::fault::{FaultInjector, FaultKind, FaultStats};
use crate::log::{DeviceLog, Entry, Event, RecordMode};
use crate::program::isa::{FragmentProgram, NUM_PARAMS, NUM_TEXTURE_UNITS};
use crate::raster::{rasterize, DrawInputs, Rect};
use crate::span::SpanKind;
use crate::state::{
    AlphaState, ColorMask, CompareFunc, DepthBoundsState, PipelineState, ScissorState, StencilOp,
};
use crate::stats::{GpuStats, Phase};
use crate::texture::{Texture, TextureId};
use crate::trace::{DeviceCaps, DrawPass, PassOp, ProgramInfo};
use std::sync::Arc;
use std::time::Instant;

/// Default video memory budget: the paper's card had 256 MB.
pub const DEFAULT_VRAM_BYTES: usize = 256 << 20;

/// A simulated GPU device.
///
/// All mutation goes through `&mut self`; the device is cheap to move and
/// can be wrapped in a `parking_lot::Mutex` for shared use.
pub struct Gpu {
    profile: HardwareProfile,
    fb: Framebuffer,
    /// Shared with the draw in flight, whose kernel holds the textures it
    /// samples; updates copy on write.
    textures: Vec<Option<Arc<Texture>>>,
    free_ids: Vec<u32>,
    bound_textures: [Option<TextureId>; NUM_TEXTURE_UNITS],
    program: Option<FragmentProgram>,
    env: [[f32; 4]; NUM_PARAMS],
    state: PipelineState,
    draw_color: [f32; 4],
    early_z: bool,
    /// Pass count accumulated by the active occlusion query, if any.
    occlusion: Option<u64>,
    phase: Phase,
    stats: GpuStats,
    vram_budget: usize,
    vram_used: usize,
    log: Option<DeviceLog>,
    fault_injector: Option<FaultInjector>,
}

// Keep the device `Send` so a caller may hand each device of a
// multi-device run to its own thread; its event log is plain data.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Gpu>();
};

impl Gpu {
    /// Create a device with an explicit hardware profile and framebuffer
    /// dimensions.
    pub fn new(profile: HardwareProfile, width: usize, height: usize) -> Gpu {
        let fb = Framebuffer::new(width, height);
        let vram_used = fb.byte_size();
        Gpu {
            profile,
            fb,
            textures: Vec::new(),
            free_ids: Vec::new(),
            bound_textures: [None; NUM_TEXTURE_UNITS],
            program: None,
            env: [[0.0; 4]; NUM_PARAMS],
            state: PipelineState::default(),
            draw_color: [1.0; 4],
            early_z: true,
            occlusion: None,
            phase: Phase::Other,
            stats: GpuStats::default(),
            vram_budget: DEFAULT_VRAM_BYTES,
            vram_used,
            log: None,
            fault_injector: None,
        }
    }

    /// Create a device modeled on the paper's GeForce FX 5900 Ultra.
    pub fn geforce_fx_5900(width: usize, height: usize) -> Gpu {
        Gpu::new(HardwareProfile::geforce_fx_5900(), width, height)
    }

    /// The hardware profile driving the cost model.
    pub fn profile(&self) -> &HardwareProfile {
        &self.profile
    }

    /// Framebuffer width in pixels.
    pub fn width(&self) -> usize {
        self.fb.width()
    }

    /// Framebuffer height in pixels.
    pub fn height(&self) -> usize {
        self.fb.height()
    }

    /// Override the video memory budget (for out-of-memory testing).
    pub fn set_vram_budget(&mut self, bytes: usize) {
        self.vram_budget = bytes;
    }

    /// Video memory currently allocated (framebuffer + textures).
    pub fn vram_used(&self) -> usize {
        self.vram_used
    }

    /// Enable or disable the early-z optimization (§6.2.1). Results are
    /// unaffected; only the modeled cost of shading changes.
    pub fn set_early_z(&mut self, enabled: bool) {
        self.early_z = enabled;
    }

    // ------------------------------------------------------------------
    // Event log
    // ------------------------------------------------------------------

    /// Attach an empty [`DeviceLog`], replacing any attached one. From
    /// here on every state change, draw, occlusion query, readback,
    /// span and instant event is appended to it, stamped on the modeled
    /// clock. In [`RecordMode::RecordAndExecute`] logging is passive:
    /// results, statistics and modeled costs are bit-identical to an
    /// unlogged run. In [`RecordMode::RecordOnly`] draws, clears, copies
    /// and readbacks validate their arguments and are logged but do not
    /// touch the framebuffer, charge any modeled cost or poll for faults.
    pub fn attach_log(&mut self, mode: RecordMode) {
        let caps = DeviceCaps {
            has_depth_bounds: self.profile.has_depth_bounds,
            has_depth_compare_mask: self.profile.has_depth_compare_mask,
        };
        self.log = Some(DeviceLog::new(mode, caps));
    }

    /// Detach and return the log, if one is attached.
    pub fn take_log(&mut self) -> Option<DeviceLog> {
        self.log.take()
    }

    /// The attached log, if any.
    pub fn log(&self) -> Option<&DeviceLog> {
        self.log.as_ref()
    }

    /// Append an event to the attached log, if any, stamped with the
    /// modeled clock and the work counters.
    fn log_event(&mut self, event: impl FnOnce() -> Event) {
        if let Some(log) = &mut self.log {
            log.push(Entry {
                clock_ns: self.stats.modeled.total(),
                counters: self.stats.counters(),
                event: event(),
            });
        }
    }

    /// Log a device op.
    fn record(&mut self, op: PassOp) {
        self.log_event(|| Event::Op(op));
    }

    /// Whether the device is in record-only (dry run) mode.
    fn record_only(&self) -> bool {
        self.log
            .as_ref()
            .is_some_and(|log| log.mode == RecordMode::RecordOnly)
    }

    /// Log `op`; true when the log is a dry run, so the caller must not
    /// execute it.
    fn dry_run(&mut self, op: PassOp) -> bool {
        self.record(op);
        self.record_only()
    }

    /// Open a span in the attached log (no-op without one). Higher
    /// layers use this for query / plan-stage / operator spans; an
    /// operator span also starts a new pass plan. The device itself
    /// opens the pass / readback / upload / copy leaves.
    pub fn span_begin(&mut self, kind: SpanKind, name: &str) {
        self.log_event(|| Event::SpanBegin {
            kind,
            name: name.to_string(),
        });
    }

    /// Close the most recently opened span (no-op without a log).
    pub fn span_end(&mut self) {
        self.log_event(|| Event::SpanEnd);
    }

    /// Log an instant event (no-op without a log).
    fn instant(&mut self, name: &str, detail: impl FnOnce() -> String) {
        self.log_event(|| Event::Instant {
            name: name.to_string(),
            detail: detail(),
        });
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Attach a deterministic fault injector. Fault-prone operations
    /// (texture allocation, occlusion retrieval, readbacks, draws) poll it
    /// against the modeled clock and fail with typed errors when an event
    /// fires. Replaces any previously attached injector.
    pub fn attach_fault_injector(&mut self, injector: FaultInjector) {
        self.fault_injector = Some(injector);
    }

    /// Detach and return the fault injector (with its fired/pending
    /// state), if any.
    pub fn take_fault_injector(&mut self) -> Option<FaultInjector> {
        self.fault_injector.take()
    }

    /// Whether a fault injector is attached.
    pub fn has_fault_injector(&self) -> bool {
        self.fault_injector.is_some()
    }

    /// Counts of faults fired so far by the attached injector (all zeros
    /// without one).
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_injector
            .as_ref()
            .map(FaultInjector::fired)
            .unwrap_or_default()
    }

    /// Poll the injector for a fault striking an operation of `kind` at
    /// the current modeled time. Device resets outrank kind-specific
    /// events and immediately wipe the context. Faults never fire during
    /// record-only dry runs (an EXPLAIN must not consume chaos events).
    fn poll_fault(&mut self, kind: FaultKind) -> Option<FaultKind> {
        if self.record_only() {
            return None;
        }
        let now = self.stats.modeled.total();
        let fired = self.fault_injector.as_mut()?.poll(kind, now)?;
        if fired == FaultKind::DeviceReset {
            self.perform_device_reset();
        }
        self.instant(&format!("fault:{}", fired.name()), String::new);
        Some(fired)
    }

    /// Wipe the device as a driver reset would: every texture, binding,
    /// program, parameter, pipeline state bit, and framebuffer byte is
    /// lost. Accumulated statistics (and hence the modeled clock) are
    /// preserved so fault schedules stay monotonic across the reset, and
    /// the event log stays attached — observability survives the fault it
    /// is observing.
    fn perform_device_reset(&mut self) {
        self.textures.clear();
        self.free_ids.clear();
        self.bound_textures = [None; NUM_TEXTURE_UNITS];
        self.program = None;
        self.env = [[0.0; 4]; NUM_PARAMS];
        self.state = PipelineState::default();
        self.draw_color = [1.0; 4];
        self.occlusion = None;
        self.fb = Framebuffer::new(self.fb.width(), self.fb.height());
        self.vram_used = self.fb.byte_size();
    }

    // ------------------------------------------------------------------
    // Phase attribution & statistics
    // ------------------------------------------------------------------

    /// Attribute subsequent work to a phase.
    pub fn set_phase(&mut self, phase: Phase) {
        self.phase = phase;
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &GpuStats {
        &self.stats
    }

    /// Reset the statistics counters.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    // ------------------------------------------------------------------
    // Textures
    // ------------------------------------------------------------------

    /// Upload a texture to the device (costed as an AGP transfer).
    pub fn create_texture(&mut self, texture: Texture) -> GpuResult<TextureId> {
        let bytes = texture.byte_size();
        match self.poll_fault(FaultKind::AllocationFail) {
            Some(FaultKind::DeviceReset) => return Err(GpuError::DeviceReset),
            Some(_) => {
                // An injected allocation refusal (fragmentation / driver
                // denial) surfaces as the same error as a genuine
                // over-budget request so one out-of-core ladder covers both.
                return Err(GpuError::OutOfVideoMemory {
                    requested: bytes,
                    available: self.vram_budget.saturating_sub(self.vram_used),
                });
            }
            None => {}
        }
        if self.vram_used + bytes > self.vram_budget {
            return Err(GpuError::OutOfVideoMemory {
                requested: bytes,
                available: self.vram_budget.saturating_sub(self.vram_used),
            });
        }
        let wall = Instant::now();
        let id = match self.free_ids.pop() {
            Some(id) => {
                self.textures[id as usize] = Some(Arc::new(texture));
                id
            }
            None => {
                self.textures.push(Some(Arc::new(texture)));
                (self.textures.len() - 1) as u32
            }
        };
        self.vram_used += bytes;
        self.span_begin(SpanKind::Upload, "upload:texture");
        self.stats.bytes_uploaded += bytes as u64;
        self.stats
            .modeled
            .add(self.phase, self.profile.upload_ns(bytes as u64));
        self.span_end();
        self.stats
            .wall
            .add(self.phase, wall.elapsed().as_secs_f64());
        Ok(TextureId(id))
    }

    /// Delete a texture, releasing its video memory.
    pub fn delete_texture(&mut self, id: TextureId) -> GpuResult<()> {
        let slot = self
            .textures
            .get_mut(id.0 as usize)
            .ok_or(GpuError::InvalidTexture(id.0))?;
        let tex = slot.take().ok_or(GpuError::InvalidTexture(id.0))?;
        self.vram_used -= tex.byte_size();
        self.free_ids.push(id.0);
        for bound in &mut self.bound_textures {
            if *bound == Some(id) {
                *bound = None;
            }
        }
        Ok(())
    }

    /// Host-side access to a texture's contents (no transfer cost; this is
    /// a debugging affordance the real hardware lacked).
    pub fn texture(&self, id: TextureId) -> GpuResult<&Texture> {
        self.textures
            .get(id.0 as usize)
            .and_then(Option::as_deref)
            .ok_or(GpuError::InvalidTexture(id.0))
    }

    /// Bind a texture to an image unit (or unbind with `None`).
    pub fn bind_texture(&mut self, unit: usize, id: Option<TextureId>) -> GpuResult<()> {
        if unit >= NUM_TEXTURE_UNITS {
            return Err(GpuError::InvalidTextureUnit(unit));
        }
        if let Some(id) = id {
            // Validate the id eagerly.
            self.texture(id)?;
        }
        self.bound_textures[unit] = id;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Fragment programs & parameters
    // ------------------------------------------------------------------

    /// Bind a fragment program (or return to fixed-function with `None`).
    pub fn bind_program(&mut self, program: Option<FragmentProgram>) {
        self.record(PassOp::BindProgram {
            program: program.as_ref().map(ProgramInfo::of),
        });
        self.program = program;
    }

    /// Assemble and bind a program from source text.
    pub fn bind_program_source(&mut self, source: &str) -> GpuResult<()> {
        let program = crate::program::parser::assemble(source)?;
        self.record(PassOp::BindProgram {
            program: Some(ProgramInfo::of(&program)),
        });
        self.program = Some(program);
        Ok(())
    }

    /// The currently bound program, if any.
    pub fn bound_program(&self) -> Option<&FragmentProgram> {
        self.program.as_ref()
    }

    /// Set a `program.env[index]` parameter.
    pub fn set_program_env(&mut self, index: usize, value: [f32; 4]) -> GpuResult<()> {
        if index >= NUM_PARAMS {
            return Err(GpuError::InvalidParameterIndex(index));
        }
        self.record(PassOp::SetProgramEnv { index, value });
        self.env[index] = value;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Fixed-function state
    // ------------------------------------------------------------------

    /// Read-only view of the pipeline state.
    pub fn state(&self) -> &PipelineState {
        &self.state
    }

    /// Enable/disable the depth test and set its comparison.
    pub fn set_depth_test(&mut self, enabled: bool, func: CompareFunc) {
        self.record(PassOp::SetDepthTest { enabled, func });
        self.state.depth.test_enabled = enabled;
        self.state.depth.func = func;
    }

    /// Enable/disable depth writes.
    pub fn set_depth_write(&mut self, enabled: bool) {
        self.record(PassOp::SetDepthWrite { enabled });
        self.state.depth.write_enabled = enabled;
    }

    /// Configure the stencil test function (`glStencilFunc`).
    pub fn set_stencil_func(&mut self, enabled: bool, func: CompareFunc, reference: u8, mask: u8) {
        self.record(PassOp::SetStencilFunc {
            enabled,
            func,
            reference,
            value_mask: mask,
        });
        self.state.stencil.enabled = enabled;
        self.state.stencil.func = func;
        self.state.stencil.reference = reference;
        self.state.stencil.value_mask = mask;
    }

    /// Configure the stencil operations — the paper's
    /// `StencilOp(Op1, Op2, Op3)`.
    pub fn set_stencil_op(&mut self, fail: StencilOp, zfail: StencilOp, zpass: StencilOp) {
        self.record(PassOp::SetStencilOp { fail, zfail, zpass });
        self.state.stencil.op_fail = fail;
        self.state.stencil.op_zfail = zfail;
        self.state.stencil.op_zpass = zpass;
    }

    /// Restrict which stencil bits are writable.
    pub fn set_stencil_write_mask(&mut self, mask: u8) {
        self.record(PassOp::SetStencilWriteMask { mask });
        self.state.stencil.write_mask = mask;
    }

    /// Configure the alpha test (`glAlphaFunc`).
    pub fn set_alpha_test(&mut self, enabled: bool, func: CompareFunc, reference: f32) {
        self.record(PassOp::SetAlphaTest {
            enabled,
            func,
            reference,
        });
        self.state.alpha = AlphaState {
            enabled,
            func,
            reference,
        };
    }

    /// Configure the `EXT_depth_bounds_test` extension. Errors with
    /// [`GpuError::UnsupportedFeature`] when enabling on a hardware
    /// profile that lacks the extension (Routine 4.4's fallback is two
    /// ordinary depth-test passes); disabling is always allowed.
    pub fn set_depth_bounds(&mut self, enabled: bool, min: f64, max: f64) -> GpuResult<()> {
        if enabled && !self.profile.has_depth_bounds {
            return Err(GpuError::UnsupportedFeature("depth bounds test"));
        }
        self.record(PassOp::SetDepthBounds { enabled, min, max });
        self.state.depth_bounds = DepthBoundsState { enabled, min, max };
        Ok(())
    }

    /// Set the depth compare mask (§6.1 wishlist extension). Errors with
    /// [`GpuError::UnsupportedFeature`] unless the hardware profile
    /// advertises the capability.
    pub fn set_depth_compare_mask(&mut self, mask: u32) -> GpuResult<()> {
        if mask != crate::state::DEPTH_COMPARE_MASK_ALL && !self.profile.has_depth_compare_mask {
            return Err(GpuError::UnsupportedFeature("depth compare mask"));
        }
        self.record(PassOp::SetDepthCompareMask {
            mask: mask & crate::state::DEPTH_COMPARE_MASK_ALL,
        });
        self.state.depth.compare_mask = mask & crate::state::DEPTH_COMPARE_MASK_ALL;
        Ok(())
    }

    /// Configure the scissor rectangle.
    pub fn set_scissor(&mut self, scissor: ScissorState) {
        self.record(PassOp::SetScissor(scissor));
        self.state.scissor = scissor;
    }

    /// Set the color write mask.
    pub fn set_color_mask(&mut self, mask: ColorMask) {
        self.record(PassOp::SetColorMask(mask));
        self.state.color_mask = mask;
    }

    /// Set the flat primary color used for fixed-function quads.
    pub fn set_draw_color(&mut self, color: [f32; 4]) {
        self.record(PassOp::SetDrawColor { color });
        self.draw_color = color;
    }

    /// Reset all pipeline state to GL defaults.
    pub fn reset_state(&mut self) {
        self.record(PassOp::ResetState);
        self.state = PipelineState::default();
        self.draw_color = [1.0; 4];
    }

    // ------------------------------------------------------------------
    // Clears
    // ------------------------------------------------------------------
    //
    // Hardware of this era had fast-clear paths for depth and color, so
    // clears are modeled as (nearly) free; only the driver overhead of the
    // call is charged.

    /// Clear the color buffer.
    pub fn clear_color(&mut self, rgba: [f32; 4]) {
        if self.dry_run(PassOp::ClearColor) {
            return;
        }
        self.fb.color.clear(rgba);
        self.stats
            .modeled
            .add(self.phase, ns(self.profile.draw_call_overhead_s));
        self.instant("clear:color", String::new);
    }

    /// Clear the depth buffer to a normalized value.
    pub fn clear_depth(&mut self, depth: f64) {
        if self.dry_run(PassOp::ClearDepth { depth }) {
            return;
        }
        self.fb.depth.clear(depth);
        self.stats
            .modeled
            .add(self.phase, ns(self.profile.draw_call_overhead_s));
        self.instant("clear:depth", String::new);
    }

    /// Clear the stencil buffer.
    pub fn clear_stencil(&mut self, value: u8) {
        if self.dry_run(PassOp::ClearStencil { value }) {
            return;
        }
        self.fb.stencil.clear(value);
        self.stats
            .modeled
            .add(self.phase, ns(self.profile.draw_call_overhead_s));
        self.instant("clear:stencil", String::new);
    }

    // ------------------------------------------------------------------
    // Draw calls
    // ------------------------------------------------------------------

    /// Render a screen-aligned quad covering the whole framebuffer at the
    /// given depth — the paper's `RenderQuad(d)` / `RenderTexturedQuad`.
    pub fn draw_full_quad(&mut self, depth: f32) -> GpuResult<DrawCost> {
        let rect = Rect::full(self.fb.width(), self.fb.height());
        self.draw_quad(&[rect], depth)
    }

    /// Render screen-aligned rectangles at the given depth. The rectangles
    /// must lie within the framebuffer and not overlap (the database layer
    /// always renders disjoint rects covering each record once).
    pub fn draw_quad(&mut self, rects: &[Rect], depth: f32) -> GpuResult<DrawCost> {
        for rect in rects {
            if !rect.fits(self.fb.width(), self.fb.height()) {
                return Err(GpuError::RectOutOfBounds {
                    rect: *rect,
                    width: self.fb.width(),
                    height: self.fb.height(),
                });
            }
        }
        // Validate that every texture unit the program samples is bound.
        if let Some(program) = &self.program {
            for unit in 0..NUM_TEXTURE_UNITS {
                if program.texture_units & (1 << unit) != 0 && self.bound_textures[unit].is_none() {
                    return Err(GpuError::UnboundTextureUnit(unit));
                }
            }
        }
        // The draw is logged before it runs, so a plan keeps a draw that
        // a dry run skips or a device reset strikes; only a draw that runs
        // gets a pass span.
        let mut pass_label = None;
        if self.log.is_some() {
            let pass = DrawPass {
                state: self.state.clone(),
                program: self.program.as_ref().map(ProgramInfo::of),
                env0: self.env[0],
                depth,
                rects: rects.len(),
                occlusion_active: self.occlusion.is_some(),
            };
            pass_label = Some(match &pass.program {
                Some(program) => format!("pass:{}", program.name),
                None => "pass:fixed-function".to_string(),
            });
            if self.dry_run(PassOp::Draw(pass)) {
                return Ok(DrawCost::default());
            }
        }
        // Only a device reset can strike a draw submission; kind-specific
        // faults target allocation / query / readback operations.
        if self.poll_fault(FaultKind::DeviceReset).is_some() {
            return Err(GpuError::DeviceReset);
        }
        if let Some(label) = &pass_label {
            self.span_begin(SpanKind::Pass, label);
        }
        let wall = Instant::now();
        let textures = self
            .bound_textures
            .map(|slot| slot.and_then(|id| self.textures[id.0 as usize].clone()));
        let inputs = DrawInputs {
            state: &self.state,
            program: self.program.as_ref(),
            textures: &textures,
            env: &self.env,
            quad_depth: depth,
            draw_color: self.draw_color,
            early_z: self.early_z,
        };
        let cost = rasterize(&inputs, &mut self.fb, rects, &self.profile)?;
        cost.accumulate(&mut self.stats, self.phase);
        self.stats
            .wall
            .add(self.phase, wall.elapsed().as_secs_f64());
        if let Some(acc) = &mut self.occlusion {
            *acc += cost.passed;
        }
        self.span_end();
        Ok(cost)
    }

    // ------------------------------------------------------------------
    // Occlusion queries (NV_occlusion_query)
    // ------------------------------------------------------------------

    /// Begin counting fragments that pass all tests.
    pub fn begin_occlusion_query(&mut self) -> GpuResult<()> {
        if self.occlusion.is_some() {
            return Err(GpuError::OcclusionQueryMisuse(
                "begin with a query already active",
            ));
        }
        self.record(PassOp::BeginOcclusionQuery);
        self.occlusion = Some(0);
        self.instant("occlusion-begin", String::new);
        Ok(())
    }

    /// End the active query and synchronously fetch the pixel pass count.
    ///
    /// The synchronous fetch drains the pipeline: the cost model charges
    /// [`HardwareProfile::occlusion_sync_latency_s`] to the readback phase.
    /// Use this when the algorithm *depends* on the count before its next
    /// pass (e.g. each bit iteration of `KthLargest`).
    pub fn end_occlusion_query(&mut self) -> GpuResult<u64> {
        let count = self
            .occlusion
            .take()
            .ok_or(GpuError::OcclusionQueryMisuse("end without begin"))?;
        if self.dry_run(PassOp::EndOcclusionQuery { sync: true }) {
            return Ok(0);
        }
        self.span_begin(SpanKind::Readback, "readback:occlusion-sync");
        self.stats.occlusion_readbacks += 1;
        self.stats
            .modeled
            .add(Phase::Readback, ns(self.profile.occlusion_sync_latency_s));
        self.span_end();
        // The drain was paid either way; the result may still be lost in
        // flight. The query is consumed, so re-running the counting pass
        // (not just re-fetching) is the correct recovery.
        match self.poll_fault(FaultKind::OcclusionLoss) {
            Some(FaultKind::DeviceReset) => Err(GpuError::DeviceReset),
            Some(_) => Err(GpuError::OcclusionQueryLost),
            None => Ok(count),
        }
    }

    /// End the active query with an *asynchronous* result fetch: no
    /// pipeline drain is charged, modeling §5.3 of the paper — "these
    /// queries can be performed asynchronously and often do not add any
    /// additional overhead". Appropriate whenever the count is a final
    /// result rather than an input to the next rendering pass.
    pub fn end_occlusion_query_async(&mut self) -> GpuResult<u64> {
        let count = self
            .occlusion
            .take()
            .ok_or(GpuError::OcclusionQueryMisuse("end without begin"))?;
        if self.dry_run(PassOp::EndOcclusionQuery { sync: false }) {
            return Ok(0);
        }
        self.stats.occlusion_readbacks += 1;
        match self.poll_fault(FaultKind::OcclusionLoss) {
            Some(FaultKind::DeviceReset) => return Err(GpuError::DeviceReset),
            Some(_) => return Err(GpuError::OcclusionQueryLost),
            None => {}
        }
        self.instant("occlusion-end-async", || count.to_string());
        Ok(count)
    }

    /// Whether an occlusion query is currently active.
    pub fn occlusion_query_active(&self) -> bool {
        self.occlusion.is_some()
    }

    // ------------------------------------------------------------------
    // Read-backs
    // ------------------------------------------------------------------

    /// Read back the full depth buffer (normalized values). Costed at PCI
    /// readback bandwidth. Fails with [`GpuError::ReadbackCorrupted`] or
    /// [`GpuError::DeviceReset`] under fault injection.
    pub fn read_depth_buffer(&mut self) -> GpuResult<Vec<f64>> {
        if self.dry_run(PassOp::ReadDepthBuffer) {
            return Ok(vec![0.0; self.fb.pixel_count()]);
        }
        let bytes = (self.fb.pixel_count() * 4) as u64;
        self.span_begin(SpanKind::Readback, "readback:depth");
        self.account_readback(bytes);
        self.span_end();
        self.check_readback("depth", bytes)?;
        Ok(self.fb.depth.to_vec())
    }

    /// Read back the raw 24-bit depth buffer values.
    pub fn read_depth_buffer_raw(&mut self) -> GpuResult<Vec<u32>> {
        if self.dry_run(PassOp::ReadDepthBuffer) {
            return Ok(vec![0; self.fb.pixel_count()]);
        }
        let bytes = (self.fb.pixel_count() * 4) as u64;
        self.span_begin(SpanKind::Readback, "readback:depth");
        self.account_readback(bytes);
        self.span_end();
        self.check_readback("depth", bytes)?;
        Ok(self.fb.depth.to_raw_vec())
    }

    /// Read back the stencil buffer.
    pub fn read_stencil_buffer(&mut self) -> GpuResult<Vec<u8>> {
        if self.dry_run(PassOp::ReadStencilBuffer) {
            return Ok(vec![0; self.fb.pixel_count()]);
        }
        let bytes = self.fb.pixel_count() as u64;
        self.span_begin(SpanKind::Readback, "readback:stencil");
        self.account_readback(bytes);
        self.span_end();
        self.check_readback("stencil", bytes)?;
        Ok(self.fb.stencil.to_vec())
    }

    /// Read back the color buffer.
    pub fn read_color_buffer(&mut self) -> GpuResult<Vec<[f32; 4]>> {
        if self.dry_run(PassOp::ReadColorBuffer) {
            return Ok(vec![[0.0; 4]; self.fb.pixel_count()]);
        }
        let bytes = (self.fb.pixel_count() * 16) as u64;
        self.span_begin(SpanKind::Readback, "readback:color");
        self.account_readback(bytes);
        self.span_end();
        self.check_readback("color", bytes)?;
        Ok(self.fb.color.to_vec())
    }

    /// Integrity check at the driver boundary after a readback's cost has
    /// been charged: corruption is *detected* (parity/CRC), never returned
    /// silently — the caller gets a typed transient error and no data.
    fn check_readback(&mut self, buffer: &'static str, bytes: u64) -> GpuResult<()> {
        match self.poll_fault(FaultKind::ReadbackBitFlip) {
            Some(FaultKind::DeviceReset) => Err(GpuError::DeviceReset),
            Some(_) => Err(GpuError::ReadbackCorrupted {
                buffer,
                bytes: bytes as usize,
            }),
            None => Ok(()),
        }
    }

    fn account_readback(&mut self, bytes: u64) {
        self.stats.bytes_read_back += bytes;
        self.stats
            .modeled
            .add(Phase::Readback, self.profile.readback_ns(bytes));
    }

    /// Direct framebuffer access for in-crate helpers and white-box tests.
    #[allow(dead_code)]
    pub(crate) fn framebuffer(&self) -> &Framebuffer {
        &self.fb
    }

    /// Charge modeled nanoseconds to a phase, for in-crate helpers that
    /// model composite operations (e.g. the mipmap pyramid); returns the
    /// nanoseconds actually charged.
    pub(crate) fn add_modeled(&mut self, phase: Phase, nanos: u64) -> u64 {
        self.stats.draw_calls += 1;
        self.stats.modeled.add(phase, nanos)
    }

    /// Charge a retry backoff to the modeled clock ([`Phase::Other`]).
    ///
    /// The resilience layer sleeps on the *modeled* clock, never wall
    /// clock, so chaos runs stay deterministic; advancing the clock also
    /// lets a backoff carry the schedule past a burst of pending faults.
    /// No draw call is counted — nothing was submitted. Returns the
    /// nanoseconds actually charged: `nanos`, unless the clock saturates.
    pub fn charge_backoff(&mut self, nanos: u64) -> u64 {
        let charged = self.stats.modeled.add(Phase::Other, nanos);
        self.instant("resilience:backoff", String::new);
        charged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::texture::TextureFormat;

    fn tex(values: &[f32]) -> Texture {
        Texture::from_data(values.len(), 1, TextureFormat::R, values.to_vec()).unwrap()
    }

    #[test]
    fn texture_lifecycle_and_vram_accounting() {
        let mut gpu = Gpu::geforce_fx_5900(4, 4);
        let base = gpu.vram_used();
        let id = gpu.create_texture(tex(&[1.0, 2.0, 3.0, 4.0])).unwrap();
        assert_eq!(gpu.vram_used(), base + 16);
        assert_eq!(gpu.texture(id).unwrap().fetch_channel(2, 0, 0), 3.0);
        gpu.delete_texture(id).unwrap();
        assert_eq!(gpu.vram_used(), base);
        assert!(gpu.texture(id).is_err());
        assert!(gpu.delete_texture(id).is_err());
    }

    #[test]
    fn texture_ids_are_recycled() {
        let mut gpu = Gpu::geforce_fx_5900(2, 2);
        let a = gpu.create_texture(tex(&[1.0])).unwrap();
        gpu.delete_texture(a).unwrap();
        let b = gpu.create_texture(tex(&[2.0])).unwrap();
        assert_eq!(a.raw(), b.raw());
    }

    #[test]
    fn vram_budget_enforced() {
        let mut gpu = Gpu::geforce_fx_5900(2, 2);
        gpu.set_vram_budget(gpu.vram_used() + 15);
        let err = gpu.create_texture(tex(&[1.0, 2.0, 3.0, 4.0])).unwrap_err();
        assert!(matches!(err, GpuError::OutOfVideoMemory { .. }));
        // A smaller texture still fits.
        assert!(gpu.create_texture(tex(&[1.0])).is_ok());
    }

    #[test]
    fn deleting_bound_texture_unbinds_it() {
        let mut gpu = Gpu::geforce_fx_5900(2, 2);
        let id = gpu.create_texture(tex(&[1.0])).unwrap();
        gpu.bind_texture(0, Some(id)).unwrap();
        gpu.delete_texture(id).unwrap();
        // Drawing with a program that samples unit 0 now fails.
        gpu.bind_program_source(
            "TEX R0, fragment.texcoord[0], texture[0], 2D; MOV result.color, R0;",
        )
        .unwrap();
        let err = gpu.draw_full_quad(0.5).unwrap_err();
        assert_eq!(err, GpuError::UnboundTextureUnit(0));
    }

    #[test]
    fn draw_rejects_out_of_bounds_rect() {
        let mut gpu = Gpu::geforce_fx_5900(4, 4);
        let err = gpu.draw_quad(&[Rect::new(0, 0, 5, 1)], 0.5).unwrap_err();
        assert!(matches!(err, GpuError::RectOutOfBounds { .. }));
    }

    #[test]
    fn fixed_function_quad_writes_depth_everywhere() {
        let mut gpu = Gpu::geforce_fx_5900(8, 4);
        gpu.set_depth_test(true, CompareFunc::Always);
        gpu.set_depth_write(true);
        let cost = gpu.draw_full_quad(0.5).unwrap();
        assert_eq!(cost.fragments, 32);
        assert_eq!(cost.passed, 32);
        assert_eq!(cost.shaded, 0);
        let depths = gpu.read_depth_buffer().unwrap();
        assert!(depths.iter().all(|&d| (d - 0.5).abs() < 1e-6));
    }

    #[test]
    fn occlusion_query_counts_passing_fragments() {
        let mut gpu = Gpu::geforce_fx_5900(4, 4);
        // Stored depth defaults to 1.0; incoming 0.5 with Less always passes.
        gpu.set_depth_test(true, CompareFunc::Less);
        gpu.set_depth_write(false);
        gpu.begin_occlusion_query().unwrap();
        gpu.draw_quad(&[Rect::new(0, 0, 4, 2)], 0.5).unwrap();
        gpu.draw_quad(&[Rect::new(0, 2, 4, 1)], 0.5).unwrap();
        let count = gpu.end_occlusion_query().unwrap();
        assert_eq!(count, 12);
        assert_eq!(gpu.stats().occlusion_readbacks, 1);
    }

    #[test]
    fn occlusion_query_misuse_detected() {
        let mut gpu = Gpu::geforce_fx_5900(2, 2);
        assert!(gpu.end_occlusion_query().is_err());
        gpu.begin_occlusion_query().unwrap();
        assert!(gpu.begin_occlusion_query().is_err());
        assert!(gpu.occlusion_query_active());
        gpu.end_occlusion_query().unwrap();
        assert!(!gpu.occlusion_query_active());
    }

    #[test]
    fn program_draw_copies_texture_to_depth() {
        // The paper's CopyToDepth: fetch texel, normalize, write depth.
        let mut gpu = Gpu::geforce_fx_5900(4, 1);
        let max = crate::buffers::DEPTH_MAX as f32;
        let scale = 1.0 / crate::buffers::DEPTH_SCALE as f32;
        let id = gpu.create_texture(tex(&[0.0, 100.0, 200.0, max])).unwrap();
        gpu.bind_texture(0, Some(id)).unwrap();
        gpu.bind_program_source(
            "TEX R0, fragment.texcoord[0], texture[0], 2D;
             MUL R1.x, R0.x, program.env[0].x;
             MOV result.depth, R1.x;",
        )
        .unwrap();
        gpu.set_program_env(0, [scale, 0.0, 0.0, 0.0]).unwrap();
        gpu.set_depth_test(true, CompareFunc::Always);
        gpu.set_depth_write(true);
        let cost = gpu.draw_full_quad(0.0).unwrap();
        assert_eq!(cost.shaded, 4, "depth-writing program disables early-z");
        let raw = gpu.read_depth_buffer_raw().unwrap();
        assert_eq!(raw, vec![0, 100, 200, crate::buffers::DEPTH_MAX]);
    }

    #[test]
    fn early_z_skips_shading_of_rejected_fragments() {
        let mut gpu = Gpu::geforce_fx_5900(4, 1);
        let id = gpu.create_texture(tex(&[1.0, 2.0, 3.0, 4.0])).unwrap();
        gpu.bind_texture(0, Some(id)).unwrap();
        // Pre-load depth: two pixels near, two far.
        gpu.set_depth_test(true, CompareFunc::Always);
        gpu.set_depth_write(true);
        gpu.draw_quad(&[Rect::new(0, 0, 2, 1)], 0.1).unwrap();
        gpu.draw_quad(&[Rect::new(2, 0, 2, 1)], 0.9).unwrap();
        // Now draw a shaded quad at 0.5 with Less: only the two far pixels pass.
        gpu.bind_program_source(
            "TEX R0, fragment.texcoord[0], texture[0], 2D; MOV result.color, R0;",
        )
        .unwrap();
        gpu.set_depth_test(true, CompareFunc::Less);
        gpu.set_depth_write(false);
        let cost = gpu.draw_full_quad(0.5).unwrap();
        assert_eq!(cost.passed, 2);
        assert_eq!(cost.shaded, 2, "early-z shades only passing fragments");
        assert_eq!(cost.early_rejected, 2);

        // With early-z disabled, all four fragments are shaded.
        gpu.set_early_z(false);
        let cost = gpu.draw_full_quad(0.5).unwrap();
        assert_eq!(cost.passed, 2);
        assert_eq!(cost.shaded, 4);
        assert_eq!(cost.early_rejected, 0);
    }

    #[test]
    fn kil_program_discards_fragments() {
        let mut gpu = Gpu::geforce_fx_5900(4, 1);
        let id = gpu.create_texture(tex(&[-1.0, 1.0, -2.0, 2.0])).unwrap();
        gpu.bind_texture(0, Some(id)).unwrap();
        gpu.bind_program_source(
            "TEX R0, fragment.texcoord[0], texture[0], 2D;
             KIL R0.x;
             MOV result.color, R0;",
        )
        .unwrap();
        gpu.begin_occlusion_query().unwrap();
        gpu.draw_full_quad(0.5).unwrap();
        let count = gpu.end_occlusion_query().unwrap();
        assert_eq!(count, 2, "negative texels killed");
    }

    #[test]
    fn scissor_restricts_fragments() {
        let mut gpu = Gpu::geforce_fx_5900(4, 4);
        gpu.set_scissor(ScissorState {
            enabled: true,
            x: 1,
            y: 1,
            width: 2,
            height: 2,
        });
        let cost = gpu.draw_full_quad(0.5).unwrap();
        assert_eq!(cost.fragments, 4);
    }

    #[test]
    fn stats_phases_attributed() {
        let mut gpu = Gpu::geforce_fx_5900(4, 4);
        gpu.set_phase(Phase::Upload);
        gpu.create_texture(tex(&[1.0])).unwrap();
        gpu.set_phase(Phase::Compute);
        gpu.draw_full_quad(0.5).unwrap();
        let stats = gpu.stats();
        assert!(stats.modeled.get(Phase::Upload) > 0);
        assert!(stats.modeled.get(Phase::Compute) > 0);
        assert_eq!(stats.modeled.get(Phase::CopyToDepth), 0);
        assert_eq!(stats.draw_calls, 1);
        assert_eq!(stats.bytes_uploaded, 4);
    }

    #[test]
    fn env_parameter_validation() {
        let mut gpu = Gpu::geforce_fx_5900(2, 2);
        assert!(gpu.set_program_env(0, [1.0; 4]).is_ok());
        assert!(gpu.set_program_env(NUM_PARAMS, [1.0; 4]).is_err());
        assert!(gpu.bind_texture(NUM_TEXTURE_UNITS, None).is_err());
    }

    #[test]
    fn clears_reset_buffers() {
        let mut gpu = Gpu::geforce_fx_5900(2, 2);
        gpu.set_depth_test(true, CompareFunc::Always);
        gpu.draw_full_quad(0.3).unwrap();
        gpu.clear_depth(1.0);
        gpu.clear_color([0.5; 4]);
        gpu.clear_stencil(7);
        assert!(gpu
            .read_depth_buffer_raw()
            .unwrap()
            .iter()
            .all(|&d| d == crate::buffers::DEPTH_MAX));
        assert!(gpu
            .read_color_buffer()
            .unwrap()
            .iter()
            .all(|&c| c == [0.5; 4]));
        assert!(gpu.read_stencil_buffer().unwrap().iter().all(|&s| s == 7));
    }

    #[test]
    fn depth_compare_mask_gated_by_profile() {
        let mut gpu = Gpu::geforce_fx_5900(2, 2);
        assert_eq!(
            gpu.set_depth_compare_mask(0b100).unwrap_err(),
            GpuError::UnsupportedFeature("depth compare mask")
        );
        // Setting the all-ones mask is always allowed (it is the default).
        assert!(gpu
            .set_depth_compare_mask(crate::state::DEPTH_COMPARE_MASK_ALL)
            .is_ok());

        let mut gpu = Gpu::new(HardwareProfile::geforce_fx_5900_with_depth_mask(), 4, 1);
        gpu.set_depth_compare_mask(0b100).unwrap();
        assert_eq!(gpu.state().depth.compare_mask, 0b100);
    }

    #[test]
    fn depth_compare_mask_tests_single_bits() {
        // §6.1's wished-for behavior: with mask = 2^i and func Equal, the
        // test passes exactly when bit i of the stored value matches bit i
        // of the incoming depth.
        let mut gpu = Gpu::new(HardwareProfile::geforce_fx_5900_with_depth_mask(), 8, 1);
        let scale = 1.0 / crate::buffers::DEPTH_SCALE as f32;
        let values: Vec<f32> = (0..8).map(|v| v as f32).collect();
        let id = gpu
            .create_texture(Texture::from_data(8, 1, TextureFormat::R, values).unwrap())
            .unwrap();
        gpu.bind_texture(0, Some(id)).unwrap();
        gpu.bind_program_source(
            "TEX R0, fragment.texcoord[0], texture[0], 2D;
             MUL R1.x, R0.x, program.env[0].x;
             MOV result.depth, R1.x;",
        )
        .unwrap();
        gpu.set_program_env(0, [scale, 0.0, 0.0, 0.0]).unwrap();
        gpu.set_depth_test(true, CompareFunc::Always);
        gpu.set_depth_write(true);
        gpu.draw_full_quad(0.0).unwrap();
        gpu.bind_program(None);
        gpu.set_depth_write(false);

        for bit in 0..3u32 {
            gpu.set_depth_compare_mask(1 << bit).unwrap();
            gpu.set_depth_test(true, CompareFunc::Equal);
            gpu.begin_occlusion_query().unwrap();
            // Incoming depth encodes 2^bit: test passes when bit set.
            gpu.draw_full_quad((1u32 << bit) as f32 * scale).unwrap();
            let count = gpu.end_occlusion_query().unwrap();
            let expected = (0..8u32).filter(|v| v >> bit & 1 == 1).count() as u64;
            assert_eq!(count, expected, "bit {bit}");
        }
    }

    /// The log as one line per entry, ops and draws by their variant.
    fn describe(log: &DeviceLog) -> Vec<String> {
        let describe = |event: &Event| match event {
            Event::Op(PassOp::Draw(_)) => "draw".to_string(),
            Event::Op(op) => format!("{op:?}"),
            Event::SpanBegin { kind, name } => format!("begin {} {name}", kind.name()),
            Event::SpanEnd => "end".to_string(),
            Event::Instant { name, detail } => format!("instant {name} {detail}"),
        };
        log.entries().iter().map(|e| describe(&e.event)).collect()
    }

    #[test]
    fn log_sees_leaf_spans_on_the_modeled_clock() {
        let mut gpu = Gpu::geforce_fx_5900(4, 4);
        gpu.attach_log(RecordMode::RecordAndExecute);

        gpu.create_texture(tex(&[1.0, 2.0, 3.0, 4.0])).unwrap();
        gpu.set_depth_test(true, CompareFunc::Less);
        gpu.begin_occlusion_query().unwrap();
        gpu.draw_full_quad(0.5).unwrap();
        gpu.end_occlusion_query().unwrap();
        gpu.read_stencil_buffer().unwrap();

        let log = gpu.take_log().unwrap();
        assert!(gpu.log().is_none());
        assert_eq!(
            describe(&log),
            vec![
                "begin upload upload:texture",
                "end",
                "SetDepthTest { enabled: true, func: Less }",
                "BeginOcclusionQuery",
                "instant occlusion-begin ",
                "draw",
                "begin pass pass:fixed-function",
                "end",
                "EndOcclusionQuery { sync: true }",
                "begin readback readback:occlusion-sync",
                "end",
                "ReadStencilBuffer",
                "begin readback readback:stencil",
                "end",
            ]
        );
        // Stamps are the modeled clock: non-decreasing, and each
        // begin/end pair brackets a cost charge (end > begin).
        let clocks: Vec<u64> = log.entries().iter().map(|e| e.clock_ns).collect();
        assert!(clocks.windows(2).all(|w| w[0] <= w[1]));
        assert!(clocks[1] > clocks[0], "upload charged");
        assert!(clocks[7] > clocks[6], "draw charged");
        assert_eq!(log.entries()[7].counters.draw_calls, 1);
        assert_eq!(
            *clocks.last().unwrap(),
            gpu.stats().modeled.total(),
            "final end matches the device clock"
        );
    }

    #[test]
    fn log_is_cost_transparent() {
        let run = |logged: bool| {
            let mut gpu = Gpu::geforce_fx_5900(4, 4);
            if logged {
                gpu.attach_log(RecordMode::RecordAndExecute);
            }
            gpu.create_texture(tex(&[1.0, 2.0, 3.0, 4.0])).unwrap();
            gpu.set_depth_test(true, CompareFunc::Less);
            gpu.begin_occlusion_query().unwrap();
            gpu.draw_full_quad(0.5).unwrap();
            let count = gpu.end_occlusion_query().unwrap();
            (count, gpu.stats().counters(), gpu.stats().modeled.total())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn a_struck_draw_is_logged_without_a_pass_span() {
        use crate::fault::{FaultEvent, FaultInjector, FaultKind};
        let mut gpu = Gpu::geforce_fx_5900(4, 1);
        gpu.attach_fault_injector(FaultInjector::with_schedule(vec![FaultEvent {
            at_ns: 0,
            kind: FaultKind::DeviceReset,
        }]));
        gpu.attach_log(RecordMode::RecordAndExecute);
        assert_eq!(gpu.draw_full_quad(0.5), Err(GpuError::DeviceReset));
        let log = gpu.take_log().unwrap();
        assert_eq!(describe(&log), ["draw", "instant fault:device-reset "]);
    }

    #[test]
    fn depth_bounds_gated_by_profile() {
        let mut gpu = Gpu::new(HardwareProfile::geforce_fx_5900_no_depth_bounds(), 2, 2);
        assert_eq!(
            gpu.set_depth_bounds(true, 0.1, 0.9).unwrap_err(),
            GpuError::UnsupportedFeature("depth bounds test")
        );
        // Disabling is always allowed.
        gpu.set_depth_bounds(false, 0.0, 1.0).unwrap();
        let mut gpu = Gpu::geforce_fx_5900(2, 2);
        gpu.set_depth_bounds(true, 0.1, 0.9).unwrap();
        assert!(gpu.state().depth_bounds.enabled);
    }

    #[test]
    fn injected_occlusion_loss_consumes_query_and_is_transient() {
        use crate::fault::{FaultEvent, FaultInjector, FaultKind};
        let mut gpu = Gpu::geforce_fx_5900(4, 1);
        gpu.attach_fault_injector(FaultInjector::with_schedule(vec![FaultEvent {
            at_ns: 0,
            kind: FaultKind::OcclusionLoss,
        }]));
        gpu.set_depth_test(true, CompareFunc::Less);
        gpu.set_depth_write(false);
        gpu.begin_occlusion_query().unwrap();
        gpu.draw_full_quad(0.5).unwrap();
        let err = gpu.end_occlusion_query().unwrap_err();
        assert_eq!(err, GpuError::OcclusionQueryLost);
        assert_eq!(err.fault_class(), crate::error::FaultClass::Transient);
        // The query is consumed: retrying the whole counting pass works.
        assert!(!gpu.occlusion_query_active());
        gpu.begin_occlusion_query().unwrap();
        gpu.draw_full_quad(0.5).unwrap();
        assert_eq!(gpu.end_occlusion_query().unwrap(), 4);
        assert_eq!(gpu.fault_stats().occlusion_losses, 1);
    }

    #[test]
    fn injected_readback_corruption_charges_cost_and_returns_no_data() {
        use crate::fault::{FaultEvent, FaultInjector, FaultKind};
        let mut gpu = Gpu::geforce_fx_5900(4, 1);
        gpu.attach_fault_injector(FaultInjector::with_schedule(vec![FaultEvent {
            at_ns: 0,
            kind: FaultKind::ReadbackBitFlip,
        }]));
        let err = gpu.read_stencil_buffer().unwrap_err();
        assert!(matches!(
            err,
            GpuError::ReadbackCorrupted {
                buffer: "stencil",
                ..
            }
        ));
        assert!(gpu.stats().bytes_read_back > 0, "transfer cost was paid");
        // The event is consumed: the retry succeeds.
        assert_eq!(gpu.read_stencil_buffer().unwrap(), vec![0; 4]);
    }

    #[test]
    fn injected_allocation_failure_reports_out_of_memory() {
        use crate::fault::{FaultEvent, FaultInjector, FaultKind};
        let mut gpu = Gpu::geforce_fx_5900(2, 2);
        gpu.attach_fault_injector(FaultInjector::with_schedule(vec![FaultEvent {
            at_ns: 0,
            kind: FaultKind::AllocationFail,
        }]));
        let err = gpu.create_texture(tex(&[1.0])).unwrap_err();
        assert!(matches!(err, GpuError::OutOfVideoMemory { .. }));
        assert_eq!(err.fault_class(), crate::error::FaultClass::Resource);
        // Consumed: the retry allocates.
        assert!(gpu.create_texture(tex(&[1.0])).is_ok());
    }

    #[test]
    fn device_reset_wipes_context_but_preserves_the_modeled_clock() {
        use crate::fault::{FaultEvent, FaultInjector, FaultKind};
        let mut gpu = Gpu::geforce_fx_5900(4, 1);
        let id = gpu.create_texture(tex(&[1.0, 2.0, 3.0, 4.0])).unwrap();
        gpu.bind_texture(0, Some(id)).unwrap();
        gpu.set_depth_test(true, CompareFunc::Always);
        gpu.set_depth_write(true);
        gpu.draw_full_quad(0.25).unwrap();
        let clock_before = gpu.stats().modeled.total();
        let vram_floor = gpu.framebuffer().byte_size();
        assert!(clock_before > 0);

        gpu.attach_fault_injector(FaultInjector::with_schedule(vec![FaultEvent {
            at_ns: 0,
            kind: FaultKind::DeviceReset,
        }]));
        let err = gpu.read_depth_buffer().unwrap_err();
        assert_eq!(err, GpuError::DeviceReset);
        assert_eq!(err.fault_class(), crate::error::FaultClass::Device);

        // Context gone: texture invalid, state back to defaults, VRAM at
        // the framebuffer floor, framebuffer cleared.
        assert!(gpu.texture(id).is_err());
        assert_eq!(gpu.vram_used(), vram_floor);
        assert!(!gpu.state().depth.test_enabled);
        assert!(gpu
            .read_depth_buffer_raw()
            .unwrap()
            .iter()
            .all(|&d| d == crate::buffers::DEPTH_MAX));
        // The modeled clock survives (monotonic across the reset: the
        // failed readback itself charged its transfer before the fault).
        assert!(gpu.stats().modeled.total() >= clock_before);
        assert_eq!(gpu.fault_stats().device_resets, 1);
    }

    #[test]
    fn faults_do_not_fire_during_record_only_dry_runs() {
        use crate::fault::{FaultEvent, FaultInjector, FaultKind};
        let mut gpu = Gpu::geforce_fx_5900(4, 1);
        gpu.attach_fault_injector(FaultInjector::with_schedule(vec![FaultEvent {
            at_ns: 0,
            kind: FaultKind::ReadbackBitFlip,
        }]));
        gpu.attach_log(RecordMode::RecordOnly);
        assert!(gpu.read_stencil_buffer().is_ok(), "dry run never faults");
        gpu.take_log();
        // The event is still pending and strikes the real readback.
        assert!(gpu.read_stencil_buffer().is_err());
    }

    #[test]
    fn charge_backoff_advances_clock_without_draw_calls() {
        let mut gpu = Gpu::geforce_fx_5900(2, 2);
        let calls = gpu.stats().draw_calls;
        assert_eq!(gpu.charge_backoff(1_000_000), 1_000_000);
        assert_eq!(gpu.stats().modeled.total(), 1_000_000);
        assert_eq!(gpu.stats().draw_calls, calls);
        assert_eq!(gpu.stats().modeled.get(Phase::Other), 1_000_000);
        // An overlong backoff saturates the clock instead of panicking.
        assert_eq!(gpu.charge_backoff(u64::MAX), u64::MAX - 1_000_000);
        assert_eq!(gpu.stats().modeled.total(), u64::MAX);
        assert_eq!(gpu.charge_backoff(1), 0);
    }

    #[test]
    fn readbacks_are_costed() {
        let mut gpu = Gpu::geforce_fx_5900(10, 10);
        gpu.read_depth_buffer().unwrap();
        let stats = gpu.stats();
        assert_eq!(stats.bytes_read_back, 400);
        assert!(stats.modeled.get(Phase::Readback) > 0);
    }
}
