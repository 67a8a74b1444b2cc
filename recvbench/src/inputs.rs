//! Seeded inputs: ECG strips encoded by the sensor front end into wire
//! frames. Everything here runs before a timed section; the program under
//! test receives only the frames.

use hybridcs_coding::LowResCodec;
use hybridcs_core::experiment::default_training_windows;
use hybridcs_core::telemetry::FrameCodec;
use hybridcs_core::{train_lowres_codec, EncodedWindow, HybridFrontEnd, SystemConfig};
use hybridcs_ecg::{EcgGenerator, GeneratorConfig};

use crate::BenchError;

/// One operator shape: the receiver's configuration and the matching
/// sensor front end.
pub struct Shape {
    pub system: SystemConfig,
    pub codec: LowResCodec,
    pub frontend: HybridFrontEnd,
    pub wire: FrameCodec,
}

impl Shape {
    /// The default operating point (n = 512, 7-bit low-res, PDHG) with
    /// `measurements` CS measurements per window.
    pub fn build(measurements: usize) -> Result<Self, BenchError> {
        let system = SystemConfig {
            measurements,
            ..SystemConfig::default()
        };
        let codec =
            train_lowres_codec(system.lowres_bits, &default_training_windows(system.window))?;
        let frontend = HybridFrontEnd::new(&system, codec.clone())?;
        let wire = FrameCodec::new(&system)?;
        Ok(Shape {
            system,
            codec,
            frontend,
            wire,
        })
    }
}

/// One simulated sensor's pre-encoded stream.
pub struct Stream {
    pub id: u64,
    /// Clean source windows (mV); frame `r` carries window `r % len`.
    pub clean: Vec<Vec<f64>>,
    /// The front end's output for each clean window.
    pub encoded: Vec<EncodedWindow>,
    /// Wire frames; frame `r` carries sequence `r`.
    pub frames: Vec<Vec<u8>>,
}

impl Stream {
    /// The clean source of frame `sequence`.
    pub fn clean_of(&self, sequence: u32) -> &[f64] {
        &self.clean[sequence as usize % self.clean.len()]
    }
}

/// Builds one stream per id: a seeded ECG strip of `distinct` windows,
/// encoded once each and serialized into `frames` sequence-numbered wire
/// frames of shape `s`.
pub fn streams(
    s: &Shape,
    ids: &[u64],
    distinct: usize,
    frames: usize,
    seed: u64,
) -> Result<Vec<Stream>, BenchError> {
    let generator = EcgGenerator::new(GeneratorConfig::normal_sinus())?;
    let n = s.system.window;
    let mut out = Vec::with_capacity(ids.len());
    for &id in ids {
        // One spare second so the strip always holds `distinct` windows.
        let seconds = (distinct * n) as f64 / 360.0 + 1.0;
        let strip = generator.generate(seconds, hybridcs_rand::mix(seed ^ id.rotate_left(17)));
        let clean: Vec<Vec<f64>> = strip
            .chunks_exact(n)
            .take(distinct)
            .map(<[f64]>::to_vec)
            .collect();
        assert_eq!(clean.len(), distinct, "strip holds every window");
        let encoded = clean
            .iter()
            .map(|w| s.frontend.encode(w))
            .collect::<Result<Vec<_>, _>>()?;
        let frames = (0..frames)
            .map(|r| s.wire.serialize(r as u32, &encoded[r % distinct]))
            .collect::<Result<Vec<_>, _>>()?;
        out.push(Stream {
            id,
            clean,
            encoded,
            frames,
        });
    }
    Ok(out)
}
