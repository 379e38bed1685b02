//! Seed-derived inputs. The program only ever sees the bytes made here:
//! PNG files for scans, complete HTTP requests for `/check`. Making them
//! (synthesis, attack crafting, encoding, writing files) is benchmark
//! overhead that no deployment pays, so it is timed apart from set-up.

use decamouflage_datasets::{DatasetProfile, SampleGenerator};
use decamouflage_imaging::codec::{crc32, encode_bmp, encode_jpeg, encode_png};
use decamouflage_imaging::scale::ScaleAlgorithm;
use decamouflage_imaging::{Channels, Image, Size};
use std::path::Path;

/// Calibration images come from sample indices at and above this one, so
/// the calibration split never shares a sample with the measured inputs.
const CALIBRATION_BASE: u64 = 1 << 20;

/// SplitMix64: a small deterministic generator for the benchmark's own
/// choices (orderings, garbage bytes).
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// A dataset profile re-seeded from the benchmark seed, so each seed
/// draws a different corpus with the same size and content mix.
pub fn seeded(profile: DatasetProfile, seed: u64) -> SampleGenerator {
    let mut mix = SplitMix::new(seed);
    let profile = DatasetProfile { seed: profile.seed ^ mix.next_u64(), ..profile };
    SampleGenerator::new(profile, ScaleAlgorithm::Bilinear)
}

/// The 128² RGB profile of `check-128`: NeurIPS-like content, target 32².
pub fn rgb128() -> DatasetProfile {
    DatasetProfile {
        name: "neurips-like-rgb128",
        source_sizes: vec![Size::square(128)],
        target_size: Size::square(32),
        channels: Channels::Rgb,
        ..DatasetProfile::neurips_like()
    }
}

/// The benign image of sample `index`, or the attack crafted on it.
fn labelled(generator: &SampleGenerator, index: u64, attack: bool) -> Result<Image, String> {
    if attack {
        generator.attack_image(index).map_err(|e| format!("crafting attack {index}: {e}"))
    } else {
        Ok(generator.benign(index))
    }
}

/// Writes the calibration split — `pairs` benign and `pairs` attack
/// images from indices disjoint from the measured inputs — as PNG files
/// under `dir/benign` and `dir/attack`.
pub fn write_calibration(
    generator: &SampleGenerator,
    pairs: u64,
    dir: &Path,
) -> Result<(), String> {
    for (class, attack) in [("benign", false), ("attack", true)] {
        let sub = dir.join(class);
        std::fs::create_dir_all(&sub).map_err(|e| format!("mkdir {}: {e}", sub.display()))?;
        for i in 0..pairs {
            let image = labelled(generator, CALIBRATION_BASE + i, attack)?;
            let path = sub.join(format!("{i:03}.png"));
            std::fs::write(&path, encode_png(&image))
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
    }
    Ok(())
}

/// A scan corpus: `pairs` benign/attack pairs as PNG files in `dir`, in a
/// seed-shuffled order. Returns the labels in file-name (scan) order.
pub fn write_scan_corpus(
    generator: &SampleGenerator,
    pairs: u64,
    seed: u64,
    dir: &Path,
) -> Result<Vec<bool>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let mut order: Vec<(u64, bool)> = (0..pairs).flat_map(|i| [(i, false), (i, true)]).collect();
    SplitMix::new(seed ^ 0x5CA1).shuffle(&mut order);
    let mut labels = Vec::with_capacity(order.len());
    for (position, &(index, attack)) in order.iter().enumerate() {
        let image = labelled(generator, index, attack)?;
        let path = dir.join(format!("{position:04}.png"));
        std::fs::write(&path, encode_png(&image))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        labels.push(attack);
    }
    Ok(labels)
}

/// What the server owes a request body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// `200` with a verdict; the label is whether it is an attack.
    Verdict { attack: bool },
    /// A typed rejection: the status and the `fault` (422) or `error`
    /// (413) tag of its JSON body.
    Reject { status: u16, tag: &'static str },
}

/// One prepared `/check` request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The complete request bytes (head and body).
    pub bytes: Vec<u8>,
    pub expect: Expect,
    /// What the body is: a codec name, or the hostile kind.
    pub kind: &'static str,
}

fn post_check(id: usize, body: &[u8], declared: usize) -> Vec<u8> {
    let mut bytes = format!(
        "POST /check HTTP/1.1\r\nHost: bench\r\nX-Request-Id: {id}\r\nContent-Length: {declared}\r\n\r\n"
    )
    .into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

/// Reads the request id back from a request head.
pub fn request_id(head: &decamouflage_serve::http::RequestHead) -> usize {
    head.header("x-request-id").and_then(|v| v.trim().parse().ok()).unwrap_or(usize::MAX)
}

/// `check-128`: `pairs` benign/attack pairs of 128² RGB images, each
/// encoded as PNG, JPEG q90 or BMP in rotation, in a seed-shuffled order.
pub fn check128_requests(
    generator: &SampleGenerator,
    pairs: u64,
    seed: u64,
) -> Result<Vec<Request>, String> {
    let mut bodies = Vec::new();
    for i in 0..pairs {
        for attack in [false, true] {
            let image = labelled(generator, i, attack)?;
            let (kind, body) = match (2 * i + u64::from(attack)) % 3 {
                0 => ("png", encode_png(&image)),
                1 => ("jpeg", encode_jpeg(&image, 90)),
                _ => ("bmp", encode_bmp(&image)),
            };
            bodies.push((body, Expect::Verdict { attack }, kind));
        }
    }
    Ok(finish(bodies, seed))
}

/// Body-size cap the `check-mixed` server runs with (the server default).
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// `check-mixed`: `pairs` benign/attack pairs of Caltech-like images
/// (392², 448², 504×392, 616²) as PNG or JPEG q90, plus one hostile body
/// per three valid ones, in a seed-shuffled order.
pub fn check_mixed_requests(
    generator: &SampleGenerator,
    pairs: u64,
    seed: u64,
) -> Result<Vec<Request>, String> {
    let mut bodies = Vec::new();
    let mut rng = SplitMix::new(seed ^ 0xBAD);
    for i in 0..pairs {
        for attack in [false, true] {
            let image = labelled(generator, i, attack)?;
            let body = if (i + u64::from(attack)) % 2 == 0 {
                ("png", encode_png(&image))
            } else {
                ("jpeg", encode_jpeg(&image, 90))
            };
            bodies.push((body.1, Expect::Verdict { attack }, body.0));
        }
    }
    let hostile = (2 * pairs as usize).div_ceil(3);
    for h in 0..hostile {
        let image = generator.benign(CALIBRATION_BASE / 2 + h as u64);
        bodies.push(hostile_body(h, &image, &mut rng));
    }
    Ok(finish(bodies, seed))
}

const UNREADABLE: Expect = Expect::Reject { status: 422, tag: "unreadable" };
const UNSUPPORTED: Expect = Expect::Reject { status: 422, tag: "unsupported-format" };

/// The `h`-th hostile body, cycling through the rejection contracts:
/// broken files of supported formats (`422 unreadable`), formats or
/// features no codec speaks (`422 unsupported-format`), an image below
/// the engine's minimum size (`422 below-minimum-size`) and a declared
/// length past the body cap (`413 body-too-large`, head only).
fn hostile_body(h: usize, image: &Image, rng: &mut SplitMix) -> (Vec<u8>, Expect, &'static str) {
    match h % 8 {
        0 => {
            let png = encode_png(image);
            let cut = png.len() / 2 + (rng.next_u64() % (png.len() as u64 / 4)) as usize;
            (png[..cut].to_vec(), UNREADABLE, "truncated-png")
        }
        1 => {
            let mut png = encode_png(image);
            // The first IDAT byte: its chunk CRC no longer matches.
            let idat = png.windows(4).position(|w| w == b"IDAT").expect("PNG has an IDAT chunk");
            png[idat + 4] ^= 0x5A;
            (png, UNREADABLE, "bad-crc-png")
        }
        2 => {
            let mut garbage = b"GARBAGE!".to_vec();
            garbage.extend((0..4096).map(|_| (rng.next_u64() & 0xFF) as u8));
            (garbage, UNSUPPORTED, "garbage")
        }
        3 => (sixteen_bit_png(image), UNSUPPORTED, "png-16bit"),
        4 => {
            let mut jpeg = encode_jpeg(image, 90);
            let sof = jpeg.windows(2).position(|w| w == [0xFF, 0xC0]).expect("baseline SOF0");
            jpeg[sof + 1] = 0xC2;
            (jpeg, UNSUPPORTED, "progressive-jpeg")
        }
        5 => {
            let tiny = Image::from_fn_gray(1, 1, |_, _| 128.0);
            (
                encode_png(&tiny),
                Expect::Reject { status: 422, tag: "below-minimum-size" },
                "tiny-png",
            )
        }
        6 => (Vec::new(), Expect::Reject { status: 413, tag: "body-too-large" }, "oversized"),
        _ => {
            let bmp = encode_bmp(image);
            (bmp[..bmp.len() / 3].to_vec(), UNREADABLE, "truncated-bmp")
        }
    }
}

/// `image` as a PNG whose IHDR declares 16-bit depth, CRC fixed up so the
/// depth, not the checksum, is what the decoder rejects.
fn sixteen_bit_png(image: &Image) -> Vec<u8> {
    let mut png = encode_png(image);
    const IHDR_DATA: usize = 8 + 8;
    png[IHDR_DATA + 8] = 16;
    let mut covered = b"IHDR".to_vec();
    covered.extend_from_slice(&png[IHDR_DATA..IHDR_DATA + 13]);
    png[IHDR_DATA + 13..IHDR_DATA + 17].copy_from_slice(&crc32(&covered).to_be_bytes());
    png
}

/// Shuffles the bodies by seed and wraps each in its request, numbered
/// in send order.
fn finish(mut bodies: Vec<(Vec<u8>, Expect, &'static str)>, seed: u64) -> Vec<Request> {
    SplitMix::new(seed ^ 0xC4EC).shuffle(&mut bodies);
    bodies
        .into_iter()
        .enumerate()
        .map(|(id, (body, expect, kind))| {
            let declared = if kind == "oversized" { MAX_BODY_BYTES + 1 } else { body.len() };
            Request { bytes: post_check(id, &body, declared), expect, kind }
        })
        .collect()
}
