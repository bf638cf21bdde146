//! Multi-channel floating-point images.
//!
//! A [`Channel`] is a row-major `f32` grid; an [`Image`] is an ordered list
//! of equally-shaped channels tagged with a [`ColorSpace`]. Pixel values are
//! nominally in `[0, 1]` (codecs clamp on output) but intermediate math may
//! leave the range — e.g. YIQ chroma is signed.

use crate::color::ColorSpace;
use crate::{ImageError, Result};

/// A single image plane: `width * height` values in row-major order.
#[derive(Debug, Clone, PartialEq)]
pub struct Channel {
    width: usize,
    height: usize,
    data: Vec<f32>,
}

impl Channel {
    /// Creates a channel filled with `value`.
    pub fn filled(width: usize, height: usize, value: f32) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(ImageError::InvalidDimensions { width, height, buffer_len: None });
        }
        Ok(Self { width, height, data: vec![value; width * height] })
    }

    /// Creates an all-zero channel.
    pub fn zeros(width: usize, height: usize) -> Result<Self> {
        Self::filled(width, height, 0.0)
    }

    /// Wraps an existing row-major buffer.
    pub fn from_vec(width: usize, height: usize, data: Vec<f32>) -> Result<Self> {
        if width == 0 || height == 0 || data.len() != width * height {
            return Err(ImageError::InvalidDimensions {
                width,
                height,
                buffer_len: Some(data.len()),
            });
        }
        Ok(Self { width, height, data })
    }

    /// Builds a channel by evaluating `f(x, y)` at every pixel.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> f32) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(ImageError::InvalidDimensions { width, height, buffer_len: None });
        }
        let mut data = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                data.push(f(x, y));
            }
        }
        Ok(Self { width, height, data })
    }

    /// Channel width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Channel height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total number of pixels.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Always false: zero-sized channels cannot be constructed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Value at `(x, y)`. Panics when out of bounds, like slice indexing.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> f32 {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x]
    }

    /// Sets the value at `(x, y)`.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, value: f32) {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x] = value;
    }


    /// Underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// One image row as a slice.
    #[inline]
    pub fn row(&self, y: usize) -> &[f32] {
        &self.data[y * self.width..(y + 1) * self.width]
    }

    /// Applies `f` to every pixel in place.
    pub fn map_in_place(&mut self, mut f: impl FnMut(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Returns a new channel with `f` applied to every pixel.
    pub fn map(&self, mut f: impl FnMut(f32) -> f32) -> Self {
        Self {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Extracts the `w × h` sub-channel rooted at `(x0, y0)`.
    pub fn crop(&self, x0: usize, y0: usize, w: usize, h: usize) -> Result<Self> {
        if w == 0 || h == 0 || x0 + w > self.width || y0 + h > self.height {
            return Err(ImageError::OutOfBounds {
                origin: (x0, y0),
                size: (w, h),
                image: (self.width, self.height),
            });
        }
        let mut data = Vec::with_capacity(w * h);
        for y in y0..y0 + h {
            data.extend_from_slice(&self.data[y * self.width + x0..y * self.width + x0 + w]);
        }
        Ok(Self { width: w, height: h, data })
    }

    /// Bilinear resize, used when building fixed-resolution baseline
    /// signatures from arbitrary-sized images.
    pub fn resize_bilinear(&self, w: usize, h: usize) -> Result<Self> {
        if w == 0 || h == 0 {
            return Err(ImageError::InvalidDimensions { width: w, height: h, buffer_len: None });
        }
        let sx = self.width as f32 / w as f32;
        let sy = self.height as f32 / h as f32;
        Self::from_fn(w, h, |x, y| {
            let fx = ((x as f32 + 0.5) * sx - 0.5).max(0.0);
            let fy = ((y as f32 + 0.5) * sy - 0.5).max(0.0);
            let x0 = (fx as usize).min(self.width - 1);
            let y0 = (fy as usize).min(self.height - 1);
            let x1 = (x0 + 1).min(self.width - 1);
            let y1 = (y0 + 1).min(self.height - 1);
            let tx = fx - x0 as f32;
            let ty = fy - y0 as f32;
            let top = self.get(x0, y0) * (1.0 - tx) + self.get(x1, y0) * tx;
            let bot = self.get(x0, y1) * (1.0 - tx) + self.get(x1, y1) * tx;
            top * (1.0 - ty) + bot * ty
        })
    }

    /// Mean pixel value.
    pub fn mean(&self) -> f32 {
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }

    /// Population variance of pixel values.
    pub fn variance(&self) -> f32 {
        let mean = self.mean();
        self.data.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / self.data.len() as f32
    }

    /// Sum of squared pixel values (the "energy" preserved by orthonormal
    /// wavelet transforms).
    pub fn energy(&self) -> f64 {
        self.data.iter().map(|&v| (v as f64) * (v as f64)).sum()
    }
}

/// A multi-channel image: equally shaped [`Channel`]s plus a color-space tag.
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    channels: Vec<Channel>,
    space: ColorSpace,
}

impl Image {
    /// Assembles an image from channels. All channels must share a shape and
    /// the channel count must match `space.channel_count()`.
    pub fn from_channels(channels: Vec<Channel>, space: ColorSpace) -> Result<Self> {
        let Some(first) = channels.first() else {
            return Err(ImageError::InvalidDimensions { width: 0, height: 0, buffer_len: None });
        };
        if channels.len() != space.channel_count() {
            return Err(ImageError::ShapeMismatch {
                left: (first.width(), first.height(), channels.len()),
                right: (first.width(), first.height(), space.channel_count()),
            });
        }
        for c in &channels {
            if c.width() != first.width() || c.height() != first.height() {
                return Err(ImageError::ShapeMismatch {
                    left: (first.width(), first.height(), channels.len()),
                    right: (c.width(), c.height(), channels.len()),
                });
            }
        }
        Ok(Self { channels, space })
    }

    /// A black (all-zero) image.
    pub fn zeros(width: usize, height: usize, space: ColorSpace) -> Result<Self> {
        let channels = (0..space.channel_count())
            .map(|_| Channel::zeros(width, height))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self { channels, space })
    }

    /// Builds an image by evaluating `f(x, y) -> [f32; C]`-style closures per
    /// channel: `f(x, y, c)` returns the value of channel `c`.
    pub fn from_fn(
        width: usize,
        height: usize,
        space: ColorSpace,
        mut f: impl FnMut(usize, usize, usize) -> f32,
    ) -> Result<Self> {
        let channels = (0..space.channel_count())
            .map(|c| Channel::from_fn(width, height, |x, y| f(x, y, c)))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self { channels, space })
    }

    /// Image width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.channels[0].width()
    }

    /// Image height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.channels[0].height()
    }

    /// Total pixel count (`width * height`).
    #[inline]
    pub fn area(&self) -> usize {
        self.width() * self.height()
    }

    /// Number of channels.
    #[inline]
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// The color space this image's channels are expressed in.
    #[inline]
    pub fn space(&self) -> ColorSpace {
        self.space
    }

    /// Borrow channel `c`.
    #[inline]
    pub fn channel(&self, c: usize) -> &Channel {
        &self.channels[c]
    }

    /// Mutably borrow channel `c`.
    #[inline]
    pub fn channel_mut(&mut self, c: usize) -> &mut Channel {
        &mut self.channels[c]
    }

    /// All channels.
    #[inline]
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// The pixel at `(x, y)` as a channel-ordered vector.
    pub fn pixel(&self, x: usize, y: usize) -> Vec<f32> {
        self.channels.iter().map(|c| c.get(x, y)).collect()
    }

    /// Sets the pixel at `(x, y)`; `values.len()` must equal the channel count.
    pub fn set_pixel(&mut self, x: usize, y: usize, values: &[f32]) {
        assert_eq!(values.len(), self.channels.len(), "pixel arity mismatch");
        for (c, &v) in self.channels.iter_mut().zip(values) {
            c.set(x, y, v);
        }
    }

    /// Crops every channel to the `w × h` window rooted at `(x0, y0)`.
    pub fn crop(&self, x0: usize, y0: usize, w: usize, h: usize) -> Result<Self> {
        let channels = self
            .channels
            .iter()
            .map(|c| c.crop(x0, y0, w, h))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self { channels, space: self.space })
    }

    /// Bilinear resize of every channel.
    pub fn resize_bilinear(&self, w: usize, h: usize) -> Result<Self> {
        let channels = self
            .channels
            .iter()
            .map(|c| c.resize_bilinear(w, h))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self { channels, space: self.space })
    }

    /// Converts to the target color space (see [`crate::color`] for the
    /// supported conversion graph). A same-space conversion is a clone.
    pub fn to_space(&self, target: ColorSpace) -> Result<Self> {
        crate::color::convert(self, target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filled_channel_has_uniform_values() {
        let c = Channel::filled(4, 3, 0.25).unwrap();
        assert_eq!(c.width(), 4);
        assert_eq!(c.height(), 3);
        assert!(c.as_slice().iter().all(|&v| v == 0.25));
    }

    #[test]
    fn zero_sized_channel_rejected() {
        assert!(Channel::zeros(0, 4).is_err());
        assert!(Channel::zeros(4, 0).is_err());
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Channel::from_vec(2, 2, vec![0.0; 3]).is_err());
        assert!(Channel::from_vec(2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn from_fn_is_row_major() {
        let c = Channel::from_fn(3, 2, |x, y| (y * 10 + x) as f32).unwrap();
        assert_eq!(c.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(c.get(2, 1), 12.0);
        assert_eq!(c.row(1), &[10.0, 11.0, 12.0]);
    }

    #[test]
    fn crop_extracts_expected_window() {
        let c = Channel::from_fn(4, 4, |x, y| (y * 4 + x) as f32).unwrap();
        let sub = c.crop(1, 2, 2, 2).unwrap();
        assert_eq!(sub.as_slice(), &[9.0, 10.0, 13.0, 14.0]);
    }

    #[test]
    fn crop_out_of_bounds_rejected() {
        let c = Channel::zeros(4, 4).unwrap();
        assert!(c.crop(3, 3, 2, 2).is_err());
        assert!(c.crop(0, 0, 5, 1).is_err());
        assert!(c.crop(0, 0, 0, 1).is_err());
    }

    #[test]
    fn resize_bilinear_constant_image_is_constant() {
        let c = Channel::filled(5, 7, 0.4).unwrap();
        let r = c.resize_bilinear(13, 3).unwrap();
        for &v in r.as_slice() {
            assert!((v - 0.4).abs() < 1e-6);
        }
    }

    #[test]
    fn resize_bilinear_preserves_mean_approximately() {
        let c = Channel::from_fn(16, 16, |x, y| ((x * 31 + y * 17) % 7) as f32 / 7.0).unwrap();
        let r = c.resize_bilinear(8, 8).unwrap();
        assert!((c.mean() - r.mean()).abs() < 0.05);
    }

    #[test]
    fn mean_variance_energy() {
        let c = Channel::from_vec(2, 2, vec![0.0, 1.0, 0.0, 1.0]).unwrap();
        assert_eq!(c.mean(), 0.5);
        assert!((c.variance() - 0.25).abs() < 1e-6);
        assert!((c.energy() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn image_shape_checks() {
        let a = Channel::zeros(4, 4).unwrap();
        let b = Channel::zeros(4, 5).unwrap();
        assert!(Image::from_channels(vec![a.clone(), b, a.clone()], ColorSpace::Rgb).is_err());
        assert!(Image::from_channels(vec![a.clone(), a.clone()], ColorSpace::Rgb).is_err());
        assert!(Image::from_channels(vec![a.clone(), a.clone(), a], ColorSpace::Rgb).is_ok());
    }

    #[test]
    fn image_pixel_roundtrip() {
        let mut img = Image::zeros(4, 4, ColorSpace::Rgb).unwrap();
        img.set_pixel(2, 3, &[0.1, 0.2, 0.3]);
        assert_eq!(img.pixel(2, 3), vec![0.1, 0.2, 0.3]);
        assert_eq!(img.pixel(0, 0), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn image_crop_propagates_space() {
        let img = Image::zeros(8, 8, ColorSpace::Ycc).unwrap();
        let sub = img.crop(2, 2, 4, 4).unwrap();
        assert_eq!(sub.space(), ColorSpace::Ycc);
        assert_eq!(sub.width(), 4);
        assert_eq!(sub.area(), 16);
    }

    #[test]
    fn map_applies_function() {
        let c = Channel::from_vec(2, 1, vec![1.0, 2.0]).unwrap();
        assert_eq!(c.map(|v| v * 2.0).as_slice(), &[2.0, 4.0]);
        let mut m = c;
        m.map_in_place(|v| v + 1.0);
        assert_eq!(m.as_slice(), &[2.0, 3.0]);
    }
}
