//! Interpersonal message content: headings, typed body parts, and media
//! interchange.
//!
//! The paper requires "support for a wide range of media, including
//! telefax and where applicable paper communication" and "support for
//! interchange across communication media" (§4). Body parts therefore
//! come in four kinds — text, telefax raster, physical (paper) delivery
//! and opaque binary — and [`BodyPart::convert_to`] implements the legal
//! conversions with an explicit cost model that the R2 bench measures.

use std::sync::Arc;

use crate::address::OrAddress;
use crate::error::MtsError;

/// Message importance, carried in the heading.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Importance {
    /// Routine traffic.
    #[default]
    Normal,
    /// Low priority.
    Low,
    /// High priority.
    High,
}

/// The structured heading of an interpersonal message (P2 heading).
#[derive(Debug, Clone, PartialEq)]
pub struct Heading {
    /// The author.
    pub originator: OrAddress,
    /// Primary recipients.
    pub to: Vec<OrAddress>,
    /// Copy recipients.
    pub cc: Vec<OrAddress>,
    /// Subject line.
    pub subject: String,
    /// The IPM this one replies to, if any.
    pub in_reply_to: Option<u64>,
    /// Importance marker.
    pub importance: Importance,
    /// Whether the originator requests a receipt notification.
    pub receipt_requested: bool,
}

impl Heading {
    /// Creates a heading with one primary recipient.
    pub fn new(originator: OrAddress, to: OrAddress, subject: impl Into<String>) -> Self {
        Heading {
            originator,
            to: vec![to],
            cc: Vec::new(),
            subject: subject.into(),
            in_reply_to: None,
            importance: Importance::Normal,
            receipt_requested: false,
        }
    }

    /// All recipients (to then cc), in order.
    pub fn recipients(&self) -> impl Iterator<Item = &OrAddress> {
        self.to.iter().chain(self.cc.iter())
    }
}

/// Kinds of media a body part can be.
///
/// `kind_name` strings appear in errors and metrics.
#[derive(Debug, Clone, PartialEq)]
pub enum BodyPart {
    /// IA5-ish plain text.
    Text(String),
    /// A telefax raster image.
    Fax(FaxImage),
    /// A physical (paper) rendition for postal/courier delivery — the
    /// paper's "where applicable paper communication".
    Paper(PaperDocument),
    /// Opaque binary data with a format label.
    Binary {
        /// Format label (e.g. `application/oda`).
        format: String,
        /// The bytes, shared by every copy of the body part.
        data: Arc<[u8]>,
    },
}

/// A simulated G3 fax raster: fixed-width scan lines.
#[derive(Debug, Clone, PartialEq)]
pub struct FaxImage {
    /// Raster width in pixels (G3 standard is 1728).
    pub width: u32,
    /// One bit per pixel, packed per scan line.
    pub scan_lines: Vec<Vec<u8>>,
}

impl FaxImage {
    /// Standard G3 scan-line width in pixels.
    pub const G3_WIDTH: u32 = 1728;

    /// Number of scan lines.
    pub fn height(&self) -> usize {
        self.scan_lines.len()
    }

    /// Total raster bytes.
    pub fn byte_size(&self) -> usize {
        self.scan_lines.iter().map(Vec::len).sum()
    }
}

/// A paper rendition: pages of rendered text.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperDocument {
    /// Rendered pages.
    pub pages: Vec<String>,
}

impl PaperDocument {
    /// Characters per rendered page (fixed layout).
    pub const PAGE_CHARS: usize = 3000;

    /// Number of pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }
}

/// The relative cost of a media conversion, in abstract work units.
/// Used by the communication-requirement bench (R2) to show the shape of
/// cross-media interchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ConversionCost(pub u64);

impl BodyPart {
    /// A short name for the media kind.
    pub fn kind_name(&self) -> &'static str {
        match self {
            BodyPart::Text(_) => "text",
            BodyPart::Fax(_) => "fax",
            BodyPart::Paper(_) => "paper",
            BodyPart::Binary { .. } => "binary",
        }
    }

    /// Approximate wire size in bytes, used for bandwidth simulation.
    pub fn wire_size(&self) -> u64 {
        match self {
            BodyPart::Text(s) => s.len() as u64,
            BodyPart::Fax(f) => f.byte_size() as u64,
            BodyPart::Paper(p) => p.pages.iter().map(|pg| pg.len() as u64).sum(),
            BodyPart::Binary { data, .. } => data.len() as u64,
        }
    }

    /// Converts the body part to another media kind.
    ///
    /// Legal conversions and their cost model:
    ///
    /// | from \ to | text | fax | paper |
    /// |-----------|------|-----|-------|
    /// | text      | 0    | rasterise: 8/char | paginate: 1/char |
    /// | fax       | —    | 0   | print: 2/byte |
    /// | paper     | re-key: 4/char | rasterise: 2/char | 0 |
    /// | binary    | —    | —   | — |
    ///
    /// Fax→text (OCR) and any conversion of opaque binary are impossible,
    /// as they were in 1992.
    ///
    /// # Errors
    ///
    /// [`MtsError::ConversionImpossible`] for the dashes above.
    pub fn convert_to(&self, target: &'static str) -> Result<(BodyPart, ConversionCost), MtsError> {
        let impossible = || MtsError::ConversionImpossible {
            from: self.kind_name(),
            to: target,
        };
        if self.kind_name() == target {
            return Ok((self.clone(), ConversionCost(0)));
        }
        match (self, target) {
            (BodyPart::Text(s), "fax") => {
                let fax = rasterise(s);
                let cost = ConversionCost(8 * s.len() as u64);
                Ok((BodyPart::Fax(fax), cost))
            }
            (BodyPart::Text(s), "paper") => {
                let doc = paginate(s);
                let cost = ConversionCost(s.len() as u64);
                Ok((BodyPart::Paper(doc), cost))
            }
            (BodyPart::Fax(f), "paper") => {
                let doc = PaperDocument {
                    pages: f
                        .scan_lines
                        .chunks(1100)
                        .map(|chunk| format!("[fax raster, {} lines]", chunk.len()))
                        .collect(),
                };
                let cost = ConversionCost(2 * f.byte_size() as u64);
                Ok((BodyPart::Paper(doc), cost))
            }
            (BodyPart::Paper(p), "text") => {
                let text: String = p.pages.join("\n\x0c\n");
                let cost = ConversionCost(4 * text.len() as u64);
                Ok((BodyPart::Text(text), cost))
            }
            (BodyPart::Paper(p), "fax") => {
                let joined: String = p.pages.join("\n");
                let fax = rasterise(&joined);
                let cost = ConversionCost(2 * joined.len() as u64);
                Ok((BodyPart::Fax(fax), cost))
            }
            _ => Err(impossible()),
        }
    }
}

/// Renders text to a fax raster: one scan line per 80-character row,
/// 1 bit per pixel at G3 width.
fn rasterise(text: &str) -> FaxImage {
    let bytes_per_line = (FaxImage::G3_WIDTH as usize) / 8;
    let mut scan_lines = Vec::new();
    for chunk in text.as_bytes().chunks(80) {
        // A crude "rendering": spread the characters' bits across the line.
        let mut line = vec![0u8; bytes_per_line];
        for (i, &b) in chunk.iter().enumerate() {
            line[i % bytes_per_line] ^= b;
        }
        scan_lines.push(line);
    }
    if scan_lines.is_empty() {
        scan_lines.push(vec![0u8; bytes_per_line]);
    }
    FaxImage {
        width: FaxImage::G3_WIDTH,
        scan_lines,
    }
}

/// Splits text into fixed-size pages.
fn paginate(text: &str) -> PaperDocument {
    let mut pages: Vec<String> = text
        .as_bytes()
        .chunks(PaperDocument::PAGE_CHARS)
        .map(|c| String::from_utf8_lossy(c).into_owned())
        .collect();
    if pages.is_empty() {
        pages.push(String::new());
    }
    PaperDocument { pages }
}

/// A complete interpersonal message: heading plus body parts.
#[derive(Debug, Clone, PartialEq)]
pub struct Ipm {
    /// The heading.
    pub heading: Heading,
    /// The body, in order.
    pub body: Vec<BodyPart>,
}

impl Ipm {
    /// Creates a single-text-part message.
    pub fn text(originator: OrAddress, to: OrAddress, subject: &str, body: &str) -> Self {
        Ipm {
            heading: Heading::new(originator, to, subject),
            body: vec![BodyPart::Text(body.to_owned())],
        }
    }

    /// Total wire size of all body parts plus a fixed heading overhead.
    pub fn wire_size(&self) -> u64 {
        64 + self.body.iter().map(BodyPart::wire_size).sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(pn: &str) -> OrAddress {
        OrAddress::new("UK", "Lancaster", ["Computing"], pn).unwrap()
    }

    #[test]
    fn heading_lists_recipients_in_order() {
        let mut h = Heading::new(addr("A"), addr("B"), "s");
        h.cc.push(addr("C"));
        let names: Vec<_> = h
            .recipients()
            .map(|a| a.personal_name().to_owned())
            .collect();
        assert_eq!(names, ["B", "C"]);
    }

    #[test]
    fn text_to_fax_and_back_is_impossible() {
        let t = BodyPart::Text("hello world".into());
        let (fax, cost) = t.convert_to("fax").unwrap();
        assert_eq!(fax.kind_name(), "fax");
        assert_eq!(cost, ConversionCost(8 * 11));
        let err = fax.convert_to("text").unwrap_err();
        assert!(matches!(
            err,
            MtsError::ConversionImpossible {
                from: "fax",
                to: "text"
            }
        ));
    }

    #[test]
    fn text_to_paper_paginates() {
        let long = "x".repeat(PaperDocument::PAGE_CHARS * 2 + 10);
        let t = BodyPart::Text(long);
        let (paper, _) = t.convert_to("paper").unwrap();
        match paper {
            BodyPart::Paper(doc) => assert_eq!(doc.page_count(), 3),
            other => panic!("expected paper, got {}", other.kind_name()),
        }
    }

    #[test]
    fn paper_round_trips_through_text() {
        let t = BodyPart::Text("page one content".into());
        let (paper, _) = t.convert_to("paper").unwrap();
        let (text, cost) = paper.convert_to("text").unwrap();
        match text {
            BodyPart::Text(s) => assert!(s.contains("page one content")),
            other => panic!("expected text, got {}", other.kind_name()),
        }
        assert!(cost > ConversionCost(0), "re-keying paper costs work");
    }

    #[test]
    fn identity_conversion_is_free() {
        let t = BodyPart::Text("x".into());
        let (same, cost) = t.convert_to("text").unwrap();
        assert_eq!(same, t);
        assert_eq!(cost, ConversionCost(0));
    }

    #[test]
    fn binary_converts_to_nothing() {
        let b = BodyPart::Binary {
            format: "application/oda".into(),
            data: Arc::from(&b"x"[..]),
        };
        for target in ["text", "fax", "paper"] {
            assert!(b.convert_to(target).is_err());
        }
    }

    #[test]
    fn fax_raster_dimensions() {
        let t = BodyPart::Text("a".repeat(200));
        let (fax, _) = t.convert_to("fax").unwrap();
        match fax {
            BodyPart::Fax(img) => {
                assert_eq!(img.width, FaxImage::G3_WIDTH);
                assert_eq!(img.height(), 3, "200 chars at 80/line = 3 lines");
                assert_eq!(img.byte_size(), 3 * 216);
            }
            other => panic!("expected fax, got {}", other.kind_name()),
        }
    }

    #[test]
    fn empty_text_still_produces_media() {
        let t = BodyPart::Text(String::new());
        let (fax, _) = t.convert_to("fax").unwrap();
        match fax {
            BodyPart::Fax(img) => assert_eq!(img.height(), 1),
            _ => unreachable!(),
        }
        let (paper, _) = BodyPart::Text(String::new()).convert_to("paper").unwrap();
        match paper {
            BodyPart::Paper(doc) => assert_eq!(doc.page_count(), 1),
            _ => unreachable!(),
        }
    }

    #[test]
    fn wire_size_reflects_media_weight() {
        let text = BodyPart::Text("hello".repeat(100));
        let (fax, _) = text.convert_to("fax").unwrap();
        assert!(
            fax.wire_size() > text.wire_size(),
            "fax rasters are heavier than text"
        );
        let ipm = Ipm::text(addr("A"), addr("B"), "s", "hello");
        assert_eq!(ipm.wire_size(), 64 + 5);
    }
}
