//! Texture objects: the GPU-resident data representation.
//!
//! §3.3 of the paper: "Data is stored on the GPU as textures. Textures are
//! 2D arrays of values. [...] We store data in textures in the
//! floating-point format. This format can precisely represent integers up
//! to 24 bits."

use crate::error::{GpuError, GpuResult};
use serde::{Deserialize, Serialize};

/// Maximum texture edge supported by the simulated device.
///
/// The GeForce FX generation supported 4096×4096; the paper uses 1000×1000
/// textures holding one million records each.
pub const MAX_TEXTURE_DIM: usize = 4096;

/// Number of bits a single-precision float can represent exactly for
/// integers (the paper relies on this for its 24-bit integer encoding).
pub const EXACT_INT_BITS: u32 = 24;

/// Opaque handle to a device texture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TextureId(pub(crate) u32);

impl TextureId {
    /// Raw id, mainly for diagnostics.
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// Texture channel layout. An RGBA texture packs four attributes per texel,
/// which is how the paper stores multi-attribute records ("we store the
/// attributes of each record in multiple channels of a single texel").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TextureFormat {
    /// One channel (luminance / R).
    R,
    /// Two channels.
    Rg,
    /// Three channels.
    Rgb,
    /// Four channels.
    Rgba,
}

impl TextureFormat {
    /// Number of f32 channels per texel.
    #[inline]
    pub fn channels(self) -> usize {
        match self {
            TextureFormat::R => 1,
            TextureFormat::Rg => 2,
            TextureFormat::Rgb => 3,
            TextureFormat::Rgba => 4,
        }
    }

    /// Build a format from a channel count.
    pub fn from_channels(channels: u8) -> GpuResult<TextureFormat> {
        match channels {
            1 => Ok(TextureFormat::R),
            2 => Ok(TextureFormat::Rg),
            3 => Ok(TextureFormat::Rgb),
            4 => Ok(TextureFormat::Rgba),
            other => Err(GpuError::InvalidChannelCount(other)),
        }
    }
}

/// A 2-D floating-point texture.
///
/// Texels are stored row-major, channels interleaved. Sampling is
/// nearest-neighbor with integer texel coordinates — the only addressing
/// mode the paper's screen-aligned-quad rendering needs, where "the
/// individual elements of the texture, texels, line up with the pixels in
/// the frame-buffer".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Texture {
    width: usize,
    height: usize,
    format: TextureFormat,
    data: Vec<f32>,
}

impl Texture {
    /// Create a texture from raw interleaved texel data.
    pub fn from_data(
        width: usize,
        height: usize,
        format: TextureFormat,
        data: Vec<f32>,
    ) -> GpuResult<Texture> {
        if width == 0 || height == 0 || width > MAX_TEXTURE_DIM || height > MAX_TEXTURE_DIM {
            return Err(GpuError::InvalidTextureSize { width, height });
        }
        let expected = width * height * format.channels();
        if data.len() != expected {
            return Err(GpuError::TextureDataMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(Texture {
            width,
            height,
            format,
            data,
        })
    }

    /// Create a zero-filled texture.
    pub fn zeroed(width: usize, height: usize, format: TextureFormat) -> GpuResult<Texture> {
        if width == 0 || height == 0 || width > MAX_TEXTURE_DIM || height > MAX_TEXTURE_DIM {
            return Err(GpuError::InvalidTextureSize { width, height });
        }
        Ok(Texture {
            width,
            height,
            format,
            data: vec![0.0; width * height * format.channels()],
        })
    }

    /// Texture width in texels.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Texture height in texels.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Channel layout.
    #[inline]
    pub fn format(&self) -> TextureFormat {
        self.format
    }

    /// Total number of texels.
    #[inline]
    pub fn texel_count(&self) -> usize {
        self.width * self.height
    }

    /// Size of the texture in bytes on the device (f32 per channel).
    #[inline]
    pub fn byte_size(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Fetch a texel as an RGBA vector; missing channels read as 0 except
    /// alpha which reads as 1, matching GL's expansion rules.
    #[inline(always)]
    pub fn fetch(&self, x: usize, y: usize) -> [f32; 4] {
        debug_assert!(x < self.width && y < self.height);
        let c = self.format.channels();
        let base = (y * self.width + x) * c;
        let mut out = [0.0, 0.0, 0.0, 1.0];
        out[..c].copy_from_slice(&self.data[base..base + c]);
        out
    }

    /// Fetch a single channel of a texel.
    #[inline(always)]
    pub fn fetch_channel(&self, x: usize, y: usize, channel: usize) -> f32 {
        self.fetch(x, y)[channel]
    }

    /// Raw texel storage (row-major, interleaved).
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }
}

/// Encode an unsigned integer attribute value into the f32 texel domain.
///
/// Values must fit in [`EXACT_INT_BITS`] bits to be represented exactly;
/// larger values silently lose precision exactly as they would on the real
/// hardware, so callers that care should validate first (see
/// [`fits_exact`]).
#[inline]
pub fn encode_u32(value: u32) -> f32 {
    value as f32
}

/// Decode an f32 texel back to an unsigned integer (round-to-nearest).
/// The rounding is performed in f64 so that values near the 24-bit limit
/// are not perturbed by the addition itself.
#[inline]
pub fn decode_u32(texel: f32) -> u32 {
    debug_assert!(texel >= -0.5);
    (texel as f64 + 0.5) as u32
}

/// Whether an integer survives the f32 round-trip exactly (≤ 24 bits).
#[inline]
pub fn fits_exact(value: u32) -> bool {
    value < (1u32 << EXACT_INT_BITS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_channel_counts() {
        assert_eq!(TextureFormat::R.channels(), 1);
        assert_eq!(TextureFormat::Rg.channels(), 2);
        assert_eq!(TextureFormat::Rgb.channels(), 3);
        assert_eq!(TextureFormat::Rgba.channels(), 4);
        assert_eq!(
            TextureFormat::from_channels(4).unwrap(),
            TextureFormat::Rgba
        );
        assert!(TextureFormat::from_channels(5).is_err());
        assert!(TextureFormat::from_channels(0).is_err());
    }

    #[test]
    fn rejects_bad_dimensions() {
        assert!(Texture::zeroed(0, 4, TextureFormat::R).is_err());
        assert!(Texture::zeroed(4, 0, TextureFormat::R).is_err());
        assert!(Texture::zeroed(MAX_TEXTURE_DIM + 1, 4, TextureFormat::R).is_err());
        assert!(Texture::zeroed(MAX_TEXTURE_DIM, 1, TextureFormat::R).is_ok());
    }

    #[test]
    fn rejects_mismatched_data() {
        let err = Texture::from_data(2, 2, TextureFormat::Rg, vec![0.0; 7]).unwrap_err();
        assert_eq!(
            err,
            GpuError::TextureDataMismatch {
                expected: 8,
                actual: 7
            }
        );
    }

    #[test]
    fn fetch_expands_to_rgba() {
        let tex = Texture::from_data(2, 1, TextureFormat::Rg, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(tex.fetch(0, 0), [1.0, 2.0, 0.0, 1.0]);
        assert_eq!(tex.fetch(1, 0), [3.0, 4.0, 0.0, 1.0]);
    }

    #[test]
    fn fetch_rgba_interleaved() {
        let data: Vec<f32> = (0..2 * 2 * 4).map(|i| i as f32).collect();
        let tex = Texture::from_data(2, 2, TextureFormat::Rgba, data).unwrap();
        assert_eq!(tex.fetch(0, 0), [0.0, 1.0, 2.0, 3.0]);
        assert_eq!(tex.fetch(1, 0), [4.0, 5.0, 6.0, 7.0]);
        assert_eq!(tex.fetch(0, 1), [8.0, 9.0, 10.0, 11.0]);
        assert_eq!(tex.fetch(1, 1), [12.0, 13.0, 14.0, 15.0]);
    }

    #[test]
    fn integer_roundtrip_up_to_24_bits() {
        for v in [0u32, 1, 2, 1000, (1 << 24) - 1] {
            assert!(fits_exact(v));
            assert_eq!(decode_u32(encode_u32(v)), v);
        }
        assert!(!fits_exact(1 << 24));
        // 2^24 + 1 is NOT exactly representable in f32 — the hardware's
        // documented precision limit.
        assert_ne!(((1u32 << 24) + 1) as f32 as u32, (1 << 24) + 1);
    }

    #[test]
    fn byte_size_accounts_channels() {
        let tex = Texture::zeroed(10, 10, TextureFormat::Rgba).unwrap();
        assert_eq!(tex.byte_size(), 10 * 10 * 4 * 4);
    }
}
