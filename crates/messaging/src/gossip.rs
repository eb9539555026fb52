//! Anti-entropy gossip framing over the message transfer service.
//!
//! The federation layer replicates knowledge between environments by
//! periodic digest exchange and delta sync. The *content* of digests
//! and deltas belongs to the federation layer; what belongs here is the
//! wire discipline: a [`GossipFrame`] that rides any text-bodied
//! transport (MTS notifications, hosted nodes) with a hand-rolled,
//! self-describing codec: frames are encoded by construction rather
//! than derivation, so the wire format is written down in one place.
//!
//! The codec is versioned (`gossip/1`) and splits on the first three
//! `|` separators only, so frame bodies may contain arbitrary text
//! (including `|`) without escaping. The origin is percent-escaped
//! (`%`, `|` and `@`), so any domain name fits the header; ordinary
//! names encode to themselves.
//!
//! Frames optionally carry a [`SpanContext`] so a gossip round's trace
//! survives the wire: the context rides in the origin field as
//! `origin@<trace>.<span>` (a suffix old decoders never produced and
//! escaped origins never contain), keeping the `gossip/1` grammar and
//! separator count unchanged.
//!
//! Neither side copies a frame. A sender writes the header with
//! [`GossipFrame::write_header`] and appends its body to the same
//! buffer; a receiver [`parse`](GossipFrame::parse)s the wire string
//! into a frame that borrows its origin and body.

use std::borrow::Cow;
use std::fmt;

use cscw_kernel::{percent_escape_into, percent_unescape, SpanContext};

/// What a gossip frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A compact summary of the sender's applied state (per-origin
    /// sequence watermarks); solicits missing updates.
    Digest,
    /// Updates the receiver's digest showed it was missing.
    Delta,
}

impl FrameKind {
    fn tag(self) -> &'static str {
        match self {
            FrameKind::Digest => "digest",
            FrameKind::Delta => "delta",
        }
    }
}

/// One anti-entropy exchange unit as a receiver sees it: kind +
/// originating domain + opaque body, borrowed from the wire string it
/// was parsed from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GossipFrame<'a> {
    /// Digest or delta.
    pub kind: FrameKind,
    /// The federation domain that produced the frame (allocated only
    /// when the name held an escape).
    pub origin: Cow<'a, str>,
    /// The producing gossip round's trace context, if it was traced.
    pub ctx: Option<SpanContext>,
    /// Layer-above payload (digest watermarks, serialized updates).
    pub body: &'a str,
}

/// Why a wire string failed to decode as a gossip frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GossipCodecError {
    /// Missing or unsupported version tag.
    BadVersion(String),
    /// Unknown frame kind tag.
    BadKind(String),
    /// Fewer separators than the frame grammar requires.
    Truncated,
    /// The origin field was empty or held a malformed escape.
    BadOrigin(String),
}

impl fmt::Display for GossipCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GossipCodecError::BadVersion(v) => write!(f, "unsupported gossip version: {v}"),
            GossipCodecError::BadKind(k) => write!(f, "unknown gossip frame kind: {k}"),
            GossipCodecError::Truncated => write!(f, "truncated gossip frame"),
            GossipCodecError::BadOrigin(o) => write!(f, "bad gossip origin: {o}"),
        }
    }
}

impl std::error::Error for GossipCodecError {}

impl cscw_kernel::LayerError for GossipCodecError {
    fn layer(&self) -> cscw_kernel::Layer {
        cscw_kernel::Layer::Messaging
    }

    fn kind(&self) -> &'static str {
        match self {
            GossipCodecError::BadVersion(_) => "bad_version",
            GossipCodecError::BadKind(_) => "bad_kind",
            GossipCodecError::Truncated => "truncated",
            GossipCodecError::BadOrigin(_) => "bad_origin",
        }
    }

    // A frame that fails to decode will fail identically on retry:
    // every variant keeps the default Permanent classification.
}

impl<'a> GossipFrame<'a> {
    /// Appends a frame header to `out`:
    /// `gossip/1|<kind>|<origin>|`, with the origin escaped and a
    /// traced frame's origin rendered as `<origin>@<trace>.<span>`.
    /// The caller appends the body to the same buffer.
    pub fn write_header(out: &mut String, kind: FrameKind, origin: &str, ctx: Option<SpanContext>) {
        out.push_str("gossip/1|");
        out.push_str(kind.tag());
        out.push('|');
        percent_escape_into(out, origin, b"|@");
        if let Some(ctx) = ctx {
            out.push('@');
            ctx.encode_into(out);
        }
        out.push('|');
    }

    /// Parses a wire string into a frame borrowing from it.
    ///
    /// # Errors
    ///
    /// [`GossipCodecError`] describing the first grammar violation.
    pub fn parse(wire: &'a str) -> Result<Self, GossipCodecError> {
        let mut parts = wire.splitn(4, '|');
        let version = parts.next().unwrap_or_default();
        if version != "gossip/1" {
            return Err(GossipCodecError::BadVersion(version.to_owned()));
        }
        let kind = match parts.next() {
            Some("digest") => FrameKind::Digest,
            Some("delta") => FrameKind::Delta,
            Some(other) => return Err(GossipCodecError::BadKind(other.to_owned())),
            None => return Err(GossipCodecError::Truncated),
        };
        let origin_field = parts.next().ok_or(GossipCodecError::Truncated)?;
        // A trailing `@<trace>.<span>` suffix is the optional trace
        // context; an `@` whose suffix does not parse is treated as
        // part of the origin (plain `gossip/1` compatibility).
        let (origin, ctx) = match origin_field.rsplit_once('@') {
            Some((o, tail)) => match SpanContext::decode(tail) {
                Some(ctx) => (o, Some(ctx)),
                None => (origin_field, None),
            },
            None => (origin_field, None),
        };
        let origin = percent_unescape(origin)
            .filter(|o| !o.is_empty())
            .ok_or_else(|| GossipCodecError::BadOrigin(origin.to_owned()))?;
        let body = parts.next().ok_or(GossipCodecError::Truncated)?;
        Ok(GossipFrame {
            kind,
            origin,
            ctx,
            body,
        })
    }

    /// Is this wire string a gossip frame at all? Cheap dispatch test
    /// for transports that multiplex gossip with ordinary notifications.
    pub fn is_gossip(wire: &str) -> bool {
        wire.starts_with("gossip/1|")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(kind: FrameKind, origin: &str, ctx: Option<SpanContext>, body: &str) -> String {
        let mut wire = String::new();
        GossipFrame::write_header(&mut wire, kind, origin, ctx);
        wire.push_str(body);
        wire
    }

    #[test]
    fn frames_round_trip() {
        for (kind, origin, body) in [
            (FrameKind::Digest, "env-a", "a=3;b=7"),
            (FrameKind::Delta, "env-b", "entry|with|pipes\nand newlines"),
            (FrameKind::Digest, "env-c", ""),
        ] {
            let wire = encode(kind, origin, None, body);
            assert!(GossipFrame::is_gossip(&wire));
            let frame = GossipFrame::parse(&wire).unwrap();
            assert_eq!(
                (frame.kind, &*frame.origin, frame.body),
                (kind, origin, body)
            );
            assert!(matches!(frame.origin, Cow::Borrowed(_)));
            assert_eq!(frame.ctx, None);
        }
        assert_eq!(
            encode(FrameKind::Delta, "env-a", None, "x"),
            "gossip/1|delta|env-a|x",
            "ordinary origins encode to themselves"
        );
    }

    #[test]
    fn trace_context_rides_the_origin_field() {
        let ctx = SpanContext::decode("2a.1f").unwrap();
        let wire = encode(FrameKind::Delta, "env-a", Some(ctx), "payload");
        assert!(wire.starts_with("gossip/1|delta|env-a@"));
        let decoded = GossipFrame::parse(&wire).unwrap();
        assert_eq!(decoded.ctx, Some(ctx));
        assert_eq!(decoded.origin, "env-a");
        assert_eq!(decoded.body, "payload");
    }

    #[test]
    fn separators_in_origins_are_escaped() {
        let ctx = SpanContext::decode("2a.1f").unwrap();
        for origin in ["env|b", "env@1.2", "env%a", "e|@%|"] {
            for ctx in [None, Some(ctx)] {
                let wire = encode(FrameKind::Digest, origin, ctx, "b|o|dy");
                let decoded = GossipFrame::parse(&wire).unwrap();
                assert_eq!(
                    (&*decoded.origin, decoded.ctx, decoded.body),
                    (origin, ctx, "b|o|dy"),
                    "{wire:?}"
                );
            }
        }
        assert_eq!(
            encode(FrameKind::Digest, "env@1.2", None, ""),
            "gossip/1|digest|env%401.2|"
        );
    }

    #[test]
    fn legacy_frames_and_at_signs_still_decode() {
        // A frame from a pre-tracing encoder has no context.
        let decoded = GossipFrame::parse("gossip/1|digest|env-a|body").unwrap();
        assert_eq!(decoded.ctx, None);
        // An `@` whose suffix is not a span context stays in the origin.
        let decoded = GossipFrame::parse("gossip/1|digest|env@lan|body").unwrap();
        assert_eq!(decoded.origin, "env@lan");
        assert_eq!(decoded.ctx, None);
    }

    #[test]
    fn malformed_frames_are_classified() {
        assert!(matches!(
            GossipFrame::parse("gossip/2|digest|a|b"),
            Err(GossipCodecError::BadVersion(_))
        ));
        assert!(matches!(
            GossipFrame::parse("gossip/1|rumour|a|b"),
            Err(GossipCodecError::BadKind(_))
        ));
        assert!(matches!(
            GossipFrame::parse("gossip/1|digest"),
            Err(GossipCodecError::Truncated)
        ));
        assert!(matches!(
            GossipFrame::parse("gossip/1|digest||body"),
            Err(GossipCodecError::BadOrigin(_))
        ));
        assert!(matches!(
            GossipFrame::parse("gossip/1|digest|env%zz|body"),
            Err(GossipCodecError::BadOrigin(_))
        ));
        assert!(!GossipFrame::is_gossip("ordinary notification"));
    }
}
