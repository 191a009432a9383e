//! Relational tables on the GPU.
//!
//! §4 of the paper: "To perform these operations on a relational table
//! using GPUs, we store the attributes of each record in multiple channels
//! of a single texel, or the same texel location in multiple textures."
//! This module does both: attributes are packed four per RGBA texture, and
//! a table with more than four attributes spans several textures. Records
//! are laid out row-major in a `width × height` grid (the paper uses
//! 1000 × 1000 textures for its million-record database).

use crate::error::{EngineError, EngineResult};
use crate::ops::ATTRIBUTE_BITS;
use gpudb_sim::raster::Rect;
use gpudb_sim::texture::{Texture, TextureFormat};
use gpudb_sim::{Gpu, GpuError, Phase, TextureId};

/// Default texture width, matching the paper's 1000-wide layout.
pub const DEFAULT_WIDTH: usize = 1000;

/// Metadata for one attribute column resident on the GPU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnMeta {
    /// Attribute name.
    pub name: String,
    /// Index into the table's texture list.
    pub texture_index: usize,
    /// Channel within that texture (0 = R … 3 = A).
    pub channel: usize,
    /// Bits required by the widest value (the `b_max` of the bitwise
    /// algorithms).
    pub bits: u32,
    /// Largest value present, for range planning.
    pub max_value: u32,
}

/// A table uploaded to the device.
#[derive(Debug)]
pub struct GpuTable {
    name: String,
    width: usize,
    height: usize,
    record_count: usize,
    columns: Vec<ColumnMeta>,
    textures: Vec<TextureId>,
    rects: Vec<Rect>,
}

impl GpuTable {
    /// Create a device sized to hold `records` records at the given grid
    /// width (the framebuffer must cover the record grid).
    pub fn device_for(records: usize, width: usize) -> Gpu {
        let width = width.max(1);
        let height = records.div_ceil(width).max(1);
        Gpu::geforce_fx_5900(width, height)
    }

    /// Upload columnar data as a new table. Columns must be non-ragged and
    /// every value must fit in 24 bits. The device framebuffer width fixes
    /// the record grid width.
    pub fn upload(
        gpu: &mut Gpu,
        name: impl Into<String>,
        columns: &[(&str, &[u32])],
    ) -> EngineResult<GpuTable> {
        let name = name.into();
        let record_count = columns.first().map_or(0, |(_, v)| v.len());
        if columns.iter().any(|(_, v)| v.len() != record_count) {
            return Err(EngineError::MismatchedColumnLengths);
        }
        // Each column's largest value, found in one scan: it bounds the
        // encoding here and becomes the column's metadata below.
        let maxima: Vec<u32> = columns
            .iter()
            .map(|(_, values)| values.iter().copied().max().unwrap_or(0))
            .collect();
        for ((col_name, _), &max_value) in columns.iter().zip(&maxima) {
            let bits = 32 - max_value.leading_zeros();
            if bits > ATTRIBUTE_BITS {
                return Err(EngineError::AttributeTooWide {
                    column: (*col_name).to_string(),
                    bits,
                });
            }
        }

        let width = gpu.width();
        if width == 0 {
            // No record grid fits a zero-width device.
            return Err(EngineError::Gpu(GpuError::InvalidTextureSize {
                width,
                height: gpu.height(),
            }));
        }
        let height = record_count.div_ceil(width).max(1);
        if height > gpu.height() {
            return Err(EngineError::FramebufferTooSmall {
                needed: height,
                available: gpu.height(),
            });
        }

        gpu.set_phase(Phase::Upload);
        let mut metas = Vec::with_capacity(columns.len());
        let mut textures = Vec::new();
        for (group_index, (group, maxima)) in columns.chunks(4).zip(maxima.chunks(4)).enumerate() {
            let channels = group.len();
            let format = TextureFormat::from_channels(channels as u8)?;
            // Interleave the group's columns into one texture, padding the
            // grid tail with zeros.
            let mut data = vec![0.0f32; width * height * channels];
            for (channel, (_, values)) in group.iter().enumerate() {
                for (texel, &v) in data.chunks_exact_mut(channels).zip(values.iter()) {
                    texel[channel] = v as f32;
                }
            }
            let texture =
                Texture::from_data(width, height, format, data).map_err(EngineError::from)?;
            let id = gpu.create_texture(texture)?;
            textures.push(id);
            for (channel, ((col_name, _), &max_value)) in group.iter().zip(maxima).enumerate() {
                metas.push(ColumnMeta {
                    name: (*col_name).to_string(),
                    texture_index: group_index,
                    channel,
                    bits: 32 - max_value.leading_zeros(),
                    max_value,
                });
            }
        }

        Ok(GpuTable {
            name,
            width,
            height,
            record_count,
            columns: metas,
            textures,
            rects: Rect::covering_prefix(record_count, width),
        })
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Record grid width in texels/pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Record grid height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of records.
    pub fn record_count(&self) -> usize {
        self.record_count
    }

    /// Number of attribute columns.
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// Column metadata by index.
    pub fn column(&self, index: usize) -> EngineResult<&ColumnMeta> {
        self.columns
            .get(index)
            .ok_or(EngineError::ColumnIndexOutOfRange(index))
    }

    /// Resolve a column name to its index.
    pub fn column_index(&self, name: &str) -> EngineResult<usize> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| EngineError::ColumnNotFound(name.to_string()))
    }

    /// All column metadata.
    pub fn columns(&self) -> &[ColumnMeta] {
        &self.columns
    }

    /// Device texture holding a column.
    pub fn texture_for(&self, column: usize) -> EngineResult<TextureId> {
        let meta = self.column(column)?;
        Ok(self.textures[meta.texture_index])
    }

    /// All device textures backing the table, in group order.
    pub fn textures(&self) -> &[TextureId] {
        &self.textures
    }

    /// The screen rectangles covering exactly this table's records.
    pub fn rects(&self) -> &[Rect] {
        &self.rects
    }

    /// Release the table's textures from the device.
    pub fn free(self, gpu: &mut Gpu) -> EngineResult<()> {
        for id in self.textures {
            gpu.delete_texture(id)?;
        }
        Ok(())
    }

    /// Read a column back from the device texture (host-side verification
    /// helper; the real hardware would pay a readback for this).
    pub fn read_column(&self, gpu: &Gpu, column: usize) -> EngineResult<Vec<u32>> {
        let meta = self.column(column)?;
        let tex = gpu.texture(self.textures[meta.texture_index])?;
        let channels = tex.format().channels();
        Ok(tex
            .data()
            .chunks_exact(channels)
            .take(self.record_count)
            .map(|texel| gpudb_sim::texture::decode_u32(texel[meta.channel]))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_table(gpu: &mut Gpu) -> GpuTable {
        let a: Vec<u32> = (0..10).collect();
        let b: Vec<u32> = (0..10).map(|i| i * 100).collect();
        GpuTable::upload(gpu, "t", &[("a", &a), ("b", &b)]).unwrap()
    }

    #[test]
    fn upload_and_readback() {
        let mut gpu = GpuTable::device_for(10, 4);
        let t = small_table(&mut gpu);
        assert_eq!(t.record_count(), 10);
        assert_eq!(t.column_count(), 2);
        assert_eq!(t.width(), 4);
        assert_eq!(t.height(), 3);
        assert_eq!(t.read_column(&gpu, 0).unwrap(), (0..10).collect::<Vec<_>>());
        assert_eq!(
            t.read_column(&gpu, 1).unwrap(),
            (0..10).map(|i| i * 100).collect::<Vec<_>>()
        );
    }

    #[test]
    fn rects_cover_records_exactly() {
        let mut gpu = GpuTable::device_for(10, 4);
        let t = small_table(&mut gpu);
        let area: usize = t.rects().iter().map(Rect::area).sum();
        assert_eq!(area, 10);
    }

    #[test]
    fn two_columns_share_one_texture() {
        let mut gpu = GpuTable::device_for(10, 4);
        let t = small_table(&mut gpu);
        assert_eq!(t.textures().len(), 1);
        assert_eq!(t.column(0).unwrap().channel, 0);
        assert_eq!(t.column(1).unwrap().channel, 1);
    }

    #[test]
    fn five_columns_span_two_textures() {
        let cols: Vec<Vec<u32>> = (0..5).map(|c| vec![c as u32; 6]).collect();
        let named: Vec<(&str, &[u32])> = ["a", "b", "c", "d", "e"]
            .iter()
            .zip(&cols)
            .map(|(n, v)| (*n, v.as_slice()))
            .collect();
        let mut gpu = GpuTable::device_for(6, 3);
        let t = GpuTable::upload(&mut gpu, "wide", &named).unwrap();
        assert_eq!(t.textures().len(), 2);
        assert_eq!(t.column(4).unwrap().texture_index, 1);
        assert_eq!(t.column(4).unwrap().channel, 0);
        assert_eq!(t.read_column(&gpu, 4).unwrap(), vec![4; 6]);
    }

    #[test]
    fn column_lookup_by_name() {
        let mut gpu = GpuTable::device_for(10, 4);
        let t = small_table(&mut gpu);
        assert_eq!(t.column_index("b").unwrap(), 1);
        assert_eq!(
            t.column_index("zz").unwrap_err(),
            EngineError::ColumnNotFound("zz".into())
        );
        assert!(matches!(
            t.column(9).unwrap_err(),
            EngineError::ColumnIndexOutOfRange(9)
        ));
    }

    #[test]
    fn rejects_ragged_columns() {
        let mut gpu = GpuTable::device_for(4, 2);
        let a = vec![1u32, 2];
        let b = vec![1u32];
        let err = GpuTable::upload(&mut gpu, "t", &[("a", &a), ("b", &b)]).unwrap_err();
        assert_eq!(err, EngineError::MismatchedColumnLengths);
    }

    #[test]
    fn rejects_values_wider_than_24_bits() {
        let mut gpu = GpuTable::device_for(2, 2);
        let a = vec![1u32 << 24];
        let err = GpuTable::upload(&mut gpu, "t", &[("a", &a)]).unwrap_err();
        assert!(matches!(
            err,
            EngineError::AttributeTooWide { bits: 25, .. }
        ));
    }

    #[test]
    fn rejects_oversized_tables() {
        let mut gpu = Gpu::geforce_fx_5900(2, 2);
        let a: Vec<u32> = (0..100).collect();
        let err = GpuTable::upload(&mut gpu, "t", &[("a", &a)]).unwrap_err();
        assert!(matches!(err, EngineError::FramebufferTooSmall { .. }));
    }

    #[test]
    fn zero_width_device_is_a_typed_error() {
        let mut gpu = Gpu::geforce_fx_5900(0, 4);
        let a = [1u32, 2, 3];
        for columns in [&[("a", &a[..])][..], &[("a", &[][..])], &[]] {
            let err = GpuTable::upload(&mut gpu, "t", columns).unwrap_err();
            assert!(matches!(
                err,
                EngineError::Gpu(GpuError::InvalidTextureSize {
                    width: 0,
                    height: 4
                })
            ));
        }
    }

    #[test]
    fn bits_and_max_metadata() {
        let mut gpu = GpuTable::device_for(3, 3);
        let a = vec![5u32, 1000, 3];
        let t = GpuTable::upload(&mut gpu, "t", &[("a", &a)]).unwrap();
        assert_eq!(t.column(0).unwrap().bits, 10);
        assert_eq!(t.column(0).unwrap().max_value, 1000);
    }

    #[test]
    fn empty_table_uploads() {
        let mut gpu = GpuTable::device_for(0, 4);
        let a: Vec<u32> = vec![];
        let t = GpuTable::upload(&mut gpu, "t", &[("a", &a)]).unwrap();
        assert_eq!(t.record_count(), 0);
        assert!(t.rects().is_empty());
    }

    #[test]
    fn free_releases_textures() {
        let mut gpu = GpuTable::device_for(10, 4);
        let before = gpu.vram_used();
        let t = small_table(&mut gpu);
        assert!(gpu.vram_used() > before);
        t.free(&mut gpu).unwrap();
        assert_eq!(gpu.vram_used(), before);
    }

    #[test]
    fn upload_attributed_to_upload_phase() {
        let mut gpu = GpuTable::device_for(10, 4);
        let _t = small_table(&mut gpu);
        assert!(gpu.stats().modeled.get(Phase::Upload) > 0);
    }
}
