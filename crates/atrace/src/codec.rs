//! Typed trace events with a compact, allocation-free binary codec.
//!
//! Real mobile tracepoints are structured records, not strings — the
//! 100 MB/core/min figures of Fig. 2 assume compact encodings. Every event
//! encodes as `[tag: u8][category bits: u32][fields…]`, at most
//! [`MAX_ENCODED`] bytes, into a caller-provided stack buffer.

use crate::category::Category;
use std::fmt;

/// Upper bound of an encoded event (tag + category + fields/string).
pub const MAX_ENCODED: usize = 64;

/// Longest string payload carried by marker events; longer input is
/// truncated at a character boundary-agnostic byte cut.
pub const MAX_STRING: usize = MAX_ENCODED - 7;

/// A typed tracepoint event (the level-1/2/3 vocabulary of §2.2).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceEvent<'a> {
    /// Scheduler context switch (category `sched`, level 2).
    SchedSwitch {
        /// Previous thread.
        prev: u32,
        /// Next thread.
        next: u32,
        /// Priority of the incoming thread.
        prio: u8,
    },
    /// Scheduler wakeup (category `sched`, level 2).
    SchedWakeup {
        /// Woken thread.
        tid: u32,
        /// Target CPU.
        cpu: u8,
    },
    /// Thread migration (category `sched`, level 2 — §6's energy case).
    SchedMigrate {
        /// Migrated thread.
        tid: u32,
        /// Source CPU.
        from_cpu: u8,
        /// Destination CPU.
        to_cpu: u8,
    },
    /// IRQ entry/exit (category `irq`, level 2).
    Irq {
        /// IRQ number.
        irq: u16,
        /// `true` on entry, `false` on exit.
        enter: bool,
    },
    /// Binder transaction (category `binder_driver`, level 1).
    BinderTxn {
        /// Sending thread.
        from: u32,
        /// Receiving thread.
        to: u32,
        /// Transaction code.
        code: u32,
    },
    /// CPU frequency change (category `freq`, level 3).
    FreqChange {
        /// CPU index.
        cpu: u8,
        /// New frequency in kHz.
        khz: u32,
    },
    /// CPU idle-state entry (category `idle`, level 3).
    IdleEnter {
        /// CPU index.
        cpu: u8,
        /// Idle state (deeper = higher).
        state: u8,
    },
    /// CPU idle-state exit (category `idle`, level 3).
    IdleExit {
        /// CPU index.
        cpu: u8,
    },
    /// Thermal throttling decision (category `energy/thermal`, level 3).
    ThermalThrottle {
        /// Thermal zone.
        zone: u8,
        /// Zone temperature in milli-degrees Celsius.
        mdeg: u32,
    },
    /// Energy-model estimate (category `energy/thermal`, level 3).
    EnergyEstimate {
        /// Cluster index (0 little, 1 middle, 2 big).
        cluster: u8,
        /// Estimated power in milliwatts.
        mw: u32,
    },
    /// Named counter sample (any category).
    Counter {
        /// Counter name (truncated to [`MAX_STRING`] bytes).
        name: &'a str,
        /// Sampled value.
        value: i64,
    },
    /// Begin of a named duration (scoped marker).
    Begin {
        /// Label (truncated to [`MAX_STRING`] bytes).
        msg: &'a str,
    },
    /// End of the innermost open duration.
    End,
}

impl<'a> TraceEvent<'a> {
    /// The category this event belongs to.
    pub fn category(&self) -> Category {
        match self {
            TraceEvent::SchedSwitch { .. }
            | TraceEvent::SchedWakeup { .. }
            | TraceEvent::SchedMigrate { .. } => Category::SCHED,
            TraceEvent::Irq { .. } => Category::IRQ,
            TraceEvent::BinderTxn { .. } => Category::BINDER_DRIVER,
            TraceEvent::FreqChange { .. } => Category::FREQ,
            TraceEvent::IdleEnter { .. } | TraceEvent::IdleExit { .. } => Category::IDLE,
            TraceEvent::ThermalThrottle { .. } | TraceEvent::EnergyEstimate { .. } => {
                Category::ENERGY_THERMAL
            }
            TraceEvent::Counter { .. } => Category::SS,
            TraceEvent::Begin { .. } | TraceEvent::End => Category::VIEW,
        }
    }

    /// Encodes into `buf`, returning the used prefix length.
    pub fn encode(&self, buf: &mut [u8; MAX_ENCODED]) -> usize {
        let mut w = Writer { buf, at: 0 };
        w.u8(self.tag());
        w.u32(self.category().bits());
        match *self {
            TraceEvent::SchedSwitch { prev, next, prio } => {
                w.u32(prev);
                w.u32(next);
                w.u8(prio);
            }
            TraceEvent::SchedWakeup { tid, cpu } => {
                w.u32(tid);
                w.u8(cpu);
            }
            TraceEvent::SchedMigrate { tid, from_cpu, to_cpu } => {
                w.u32(tid);
                w.u8(from_cpu);
                w.u8(to_cpu);
            }
            TraceEvent::Irq { irq, enter } => {
                w.u16(irq);
                w.u8(enter as u8);
            }
            TraceEvent::BinderTxn { from, to, code } => {
                w.u32(from);
                w.u32(to);
                w.u32(code);
            }
            TraceEvent::FreqChange { cpu, khz } => {
                w.u8(cpu);
                w.u32(khz);
            }
            TraceEvent::IdleEnter { cpu, state } => {
                w.u8(cpu);
                w.u8(state);
            }
            TraceEvent::IdleExit { cpu } => w.u8(cpu),
            TraceEvent::ThermalThrottle { zone, mdeg } => {
                w.u8(zone);
                w.u32(mdeg);
            }
            TraceEvent::EnergyEstimate { cluster, mw } => {
                w.u8(cluster);
                w.u32(mw);
            }
            TraceEvent::Counter { name, value } => {
                w.i64(value);
                w.str(name);
            }
            TraceEvent::Begin { msg } => w.str(msg),
            TraceEvent::End => {}
        }
        w.at
    }

    /// Decodes an encoded event in place: string payloads borrow from
    /// `bytes`, so nothing is allocated.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncated input, unknown tags, or invalid UTF-8 in
    /// string payloads.
    pub fn decode(bytes: &'a [u8]) -> Result<TraceEvent<'a>, DecodeError> {
        let mut r = Reader { bytes, at: 0 };
        let tag = r.u8()?;
        let _category = r.u32()?; // self-describing; recomputed on demand
        let event = match tag {
            1 => TraceEvent::SchedSwitch { prev: r.u32()?, next: r.u32()?, prio: r.u8()? },
            2 => TraceEvent::SchedWakeup { tid: r.u32()?, cpu: r.u8()? },
            3 => TraceEvent::SchedMigrate { tid: r.u32()?, from_cpu: r.u8()?, to_cpu: r.u8()? },
            4 => TraceEvent::Irq { irq: r.u16()?, enter: r.u8()? != 0 },
            5 => TraceEvent::BinderTxn { from: r.u32()?, to: r.u32()?, code: r.u32()? },
            6 => TraceEvent::FreqChange { cpu: r.u8()?, khz: r.u32()? },
            7 => TraceEvent::IdleEnter { cpu: r.u8()?, state: r.u8()? },
            8 => TraceEvent::IdleExit { cpu: r.u8()? },
            9 => TraceEvent::ThermalThrottle { zone: r.u8()?, mdeg: r.u32()? },
            10 => TraceEvent::EnergyEstimate { cluster: r.u8()?, mw: r.u32()? },
            11 => TraceEvent::Counter { value: r.i64()?, name: r.str()? },
            12 => TraceEvent::Begin { msg: r.str()? },
            13 => TraceEvent::End,
            other => return Err(DecodeError::UnknownTag(other)),
        };
        Ok(event)
    }

    fn tag(&self) -> u8 {
        match self {
            TraceEvent::SchedSwitch { .. } => 1,
            TraceEvent::SchedWakeup { .. } => 2,
            TraceEvent::SchedMigrate { .. } => 3,
            TraceEvent::Irq { .. } => 4,
            TraceEvent::BinderTxn { .. } => 5,
            TraceEvent::FreqChange { .. } => 6,
            TraceEvent::IdleEnter { .. } => 7,
            TraceEvent::IdleExit { .. } => 8,
            TraceEvent::ThermalThrottle { .. } => 9,
            TraceEvent::EnergyEstimate { .. } => 10,
            TraceEvent::Counter { .. } => 11,
            TraceEvent::Begin { .. } => 12,
            TraceEvent::End => 13,
        }
    }
}

/// An owned, decoded event (string payloads copied out of the buffer).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum OwnedEvent {
    /// See [`TraceEvent::SchedSwitch`].
    SchedSwitch {
        /// Previous thread.
        prev: u32,
        /// Next thread.
        next: u32,
        /// Incoming priority.
        prio: u8,
    },
    /// See [`TraceEvent::SchedWakeup`].
    SchedWakeup {
        /// Woken thread.
        tid: u32,
        /// Target CPU.
        cpu: u8,
    },
    /// See [`TraceEvent::SchedMigrate`].
    SchedMigrate {
        /// Migrated thread.
        tid: u32,
        /// Source CPU.
        from_cpu: u8,
        /// Destination CPU.
        to_cpu: u8,
    },
    /// See [`TraceEvent::Irq`].
    Irq {
        /// IRQ number.
        irq: u16,
        /// Entry or exit.
        enter: bool,
    },
    /// See [`TraceEvent::BinderTxn`].
    BinderTxn {
        /// Sender.
        from: u32,
        /// Receiver.
        to: u32,
        /// Code.
        code: u32,
    },
    /// See [`TraceEvent::FreqChange`].
    FreqChange {
        /// CPU.
        cpu: u8,
        /// kHz.
        khz: u32,
    },
    /// See [`TraceEvent::IdleEnter`].
    IdleEnter {
        /// CPU.
        cpu: u8,
        /// State.
        state: u8,
    },
    /// See [`TraceEvent::IdleExit`].
    IdleExit {
        /// CPU.
        cpu: u8,
    },
    /// See [`TraceEvent::ThermalThrottle`].
    ThermalThrottle {
        /// Zone.
        zone: u8,
        /// Milli-degrees.
        mdeg: u32,
    },
    /// See [`TraceEvent::EnergyEstimate`].
    EnergyEstimate {
        /// Cluster.
        cluster: u8,
        /// Milliwatts.
        mw: u32,
    },
    /// See [`TraceEvent::Counter`].
    Counter {
        /// Name.
        name: String,
        /// Value.
        value: i64,
    },
    /// See [`TraceEvent::Begin`].
    Begin {
        /// Label.
        msg: String,
    },
    /// See [`TraceEvent::End`].
    End,
}

impl OwnedEvent {
    /// Category of the decoded event.
    pub fn category(&self) -> Category {
        self.as_borrowed().category()
    }

    fn as_borrowed(&self) -> TraceEvent<'_> {
        match *self {
            OwnedEvent::SchedSwitch { prev, next, prio } => {
                TraceEvent::SchedSwitch { prev, next, prio }
            }
            OwnedEvent::SchedWakeup { tid, cpu } => TraceEvent::SchedWakeup { tid, cpu },
            OwnedEvent::SchedMigrate { tid, from_cpu, to_cpu } => {
                TraceEvent::SchedMigrate { tid, from_cpu, to_cpu }
            }
            OwnedEvent::Irq { irq, enter } => TraceEvent::Irq { irq, enter },
            OwnedEvent::BinderTxn { from, to, code } => TraceEvent::BinderTxn { from, to, code },
            OwnedEvent::FreqChange { cpu, khz } => TraceEvent::FreqChange { cpu, khz },
            OwnedEvent::IdleEnter { cpu, state } => TraceEvent::IdleEnter { cpu, state },
            OwnedEvent::IdleExit { cpu } => TraceEvent::IdleExit { cpu },
            OwnedEvent::ThermalThrottle { zone, mdeg } => {
                TraceEvent::ThermalThrottle { zone, mdeg }
            }
            OwnedEvent::EnergyEstimate { cluster, mw } => {
                TraceEvent::EnergyEstimate { cluster, mw }
            }
            OwnedEvent::Counter { ref name, value } => TraceEvent::Counter { name, value },
            OwnedEvent::Begin { ref msg } => TraceEvent::Begin { msg },
            OwnedEvent::End => TraceEvent::End,
        }
    }

    /// Decodes an encoded event, copying its string payload out.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncated input, unknown tags, or invalid UTF-8 in
    /// string payloads — exactly where [`TraceEvent::decode`] fails.
    pub fn decode(bytes: &[u8]) -> Result<OwnedEvent, DecodeError> {
        TraceEvent::decode(bytes).map(OwnedEvent::from)
    }
}

impl From<TraceEvent<'_>> for OwnedEvent {
    fn from(event: TraceEvent<'_>) -> Self {
        match event {
            TraceEvent::SchedSwitch { prev, next, prio } => {
                OwnedEvent::SchedSwitch { prev, next, prio }
            }
            TraceEvent::SchedWakeup { tid, cpu } => OwnedEvent::SchedWakeup { tid, cpu },
            TraceEvent::SchedMigrate { tid, from_cpu, to_cpu } => {
                OwnedEvent::SchedMigrate { tid, from_cpu, to_cpu }
            }
            TraceEvent::Irq { irq, enter } => OwnedEvent::Irq { irq, enter },
            TraceEvent::BinderTxn { from, to, code } => OwnedEvent::BinderTxn { from, to, code },
            TraceEvent::FreqChange { cpu, khz } => OwnedEvent::FreqChange { cpu, khz },
            TraceEvent::IdleEnter { cpu, state } => OwnedEvent::IdleEnter { cpu, state },
            TraceEvent::IdleExit { cpu } => OwnedEvent::IdleExit { cpu },
            TraceEvent::ThermalThrottle { zone, mdeg } => {
                OwnedEvent::ThermalThrottle { zone, mdeg }
            }
            TraceEvent::EnergyEstimate { cluster, mw } => {
                OwnedEvent::EnergyEstimate { cluster, mw }
            }
            TraceEvent::Counter { name, value } => {
                OwnedEvent::Counter { name: name.to_owned(), value }
            }
            TraceEvent::Begin { msg } => OwnedEvent::Begin { msg: msg.to_owned() },
            TraceEvent::End => OwnedEvent::End,
        }
    }
}

/// Codec failure.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeError {
    /// Fewer bytes than the event's fields require.
    Truncated,
    /// The tag byte does not name a known event.
    UnknownTag(u8),
    /// A string payload was not valid UTF-8.
    BadString,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "encoded event is truncated"),
            DecodeError::UnknownTag(t) => write!(f, "unknown event tag {t}"),
            DecodeError::BadString => write!(f, "string payload is not valid utf-8"),
        }
    }
}

impl std::error::Error for DecodeError {}

struct Writer<'a> {
    buf: &'a mut [u8; MAX_ENCODED],
    at: usize,
}

impl Writer<'_> {
    fn u8(&mut self, v: u8) {
        self.buf[self.at] = v;
        self.at += 1;
    }
    fn u16(&mut self, v: u16) {
        self.buf[self.at..self.at + 2].copy_from_slice(&v.to_le_bytes());
        self.at += 2;
    }
    fn u32(&mut self, v: u32) {
        self.buf[self.at..self.at + 4].copy_from_slice(&v.to_le_bytes());
        self.at += 4;
    }
    fn i64(&mut self, v: i64) {
        self.buf[self.at..self.at + 8].copy_from_slice(&v.to_le_bytes());
        self.at += 8;
    }
    fn str(&mut self, s: &str) {
        let avail = MAX_ENCODED - self.at - 2;
        let mut take = s.len().min(avail).min(MAX_STRING);
        while take > 0 && !s.is_char_boundary(take) {
            take -= 1;
        }
        self.u16(take as u16);
        self.buf[self.at..self.at + take].copy_from_slice(&s.as_bytes()[..take]);
        self.at += take;
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.at + n > self.bytes.len() {
            return Err(DecodeError::Truncated);
        }
        let out = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(out)
    }
    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }
    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }
    fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
    fn str(&mut self) -> Result<&'a str, DecodeError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| DecodeError::BadString)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(event: TraceEvent<'_>) -> OwnedEvent {
        let mut buf = [0u8; MAX_ENCODED];
        let len = event.encode(&mut buf);
        assert!(len <= MAX_ENCODED);
        let borrowed = TraceEvent::decode(&buf[..len]).expect("roundtrip decodes in place");
        let owned = OwnedEvent::decode(&buf[..len]).expect("roundtrip decodes");
        assert_eq!(owned.as_borrowed(), borrowed, "the owned decode copies the borrowed one");
        owned
    }

    #[test]
    fn all_variants_roundtrip() {
        assert_eq!(
            roundtrip(TraceEvent::SchedSwitch { prev: 1, next: 2, prio: 3 }),
            OwnedEvent::SchedSwitch { prev: 1, next: 2, prio: 3 }
        );
        assert_eq!(
            roundtrip(TraceEvent::SchedWakeup { tid: 9, cpu: 4 }),
            OwnedEvent::SchedWakeup { tid: 9, cpu: 4 }
        );
        assert_eq!(
            roundtrip(TraceEvent::SchedMigrate { tid: 7, from_cpu: 1, to_cpu: 10 }),
            OwnedEvent::SchedMigrate { tid: 7, from_cpu: 1, to_cpu: 10 }
        );
        assert_eq!(
            roundtrip(TraceEvent::Irq { irq: 300, enter: true }),
            OwnedEvent::Irq { irq: 300, enter: true }
        );
        assert_eq!(
            roundtrip(TraceEvent::BinderTxn { from: 1, to: 2, code: 0xABCD }),
            OwnedEvent::BinderTxn { from: 1, to: 2, code: 0xABCD }
        );
        assert_eq!(
            roundtrip(TraceEvent::FreqChange { cpu: 11, khz: 2_841_600 }),
            OwnedEvent::FreqChange { cpu: 11, khz: 2_841_600 }
        );
        assert_eq!(
            roundtrip(TraceEvent::IdleEnter { cpu: 0, state: 2 }),
            OwnedEvent::IdleEnter { cpu: 0, state: 2 }
        );
        assert_eq!(roundtrip(TraceEvent::IdleExit { cpu: 0 }), OwnedEvent::IdleExit { cpu: 0 });
        assert_eq!(
            roundtrip(TraceEvent::ThermalThrottle { zone: 1, mdeg: 48_000 }),
            OwnedEvent::ThermalThrottle { zone: 1, mdeg: 48_000 }
        );
        assert_eq!(
            roundtrip(TraceEvent::EnergyEstimate { cluster: 2, mw: 3400 }),
            OwnedEvent::EnergyEstimate { cluster: 2, mw: 3400 }
        );
        assert_eq!(
            roundtrip(TraceEvent::Counter { name: "gpu_busy", value: -42 }),
            OwnedEvent::Counter { name: "gpu_busy".into(), value: -42 }
        );
        assert_eq!(
            roundtrip(TraceEvent::Begin { msg: "doFrame" }),
            OwnedEvent::Begin { msg: "doFrame".into() }
        );
        assert_eq!(roundtrip(TraceEvent::End), OwnedEvent::End);
    }

    #[test]
    fn categories_are_sensible() {
        use crate::Category;
        assert_eq!(
            TraceEvent::SchedSwitch { prev: 0, next: 0, prio: 0 }.category(),
            Category::SCHED
        );
        assert_eq!(TraceEvent::FreqChange { cpu: 0, khz: 0 }.category(), Category::FREQ);
        assert_eq!(
            TraceEvent::BinderTxn { from: 0, to: 0, code: 0 }.category(),
            Category::BINDER_DRIVER
        );
    }

    #[test]
    fn long_strings_truncate_cleanly() {
        let long = "x".repeat(500);
        let decoded = roundtrip(TraceEvent::Begin { msg: &long });
        match decoded {
            OwnedEvent::Begin { msg } => {
                assert!(msg.len() <= MAX_STRING && msg.chars().all(|c| c == 'x'))
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn multibyte_truncation_respects_char_boundaries() {
        let s = "é".repeat(100); // 2 bytes per char
        let decoded = roundtrip(TraceEvent::Counter { name: &s, value: 0 });
        match decoded {
            OwnedEvent::Counter { name, .. } => assert!(name.chars().all(|c| c == 'é')),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        let rejects = |bytes: &[u8], err: DecodeError| {
            assert_eq!(OwnedEvent::decode(bytes), Err(err.clone()));
            assert_eq!(TraceEvent::decode(bytes), Err(err));
        };
        rejects(&[], DecodeError::Truncated);
        rejects(&[200, 0, 0, 0, 0], DecodeError::UnknownTag(200));
        // Truncated sched switch.
        let mut buf = [0u8; MAX_ENCODED];
        let len = TraceEvent::SchedSwitch { prev: 1, next: 2, prio: 3 }.encode(&mut buf);
        rejects(&buf[..len - 2], DecodeError::Truncated);
        // A string cut short of its length prefix's promise.
        let len = TraceEvent::Begin { msg: "doFrame" }.encode(&mut buf);
        rejects(&buf[..len - 1], DecodeError::Truncated);
        // Invalid UTF-8 in a counter name.
        let mut buf = [0u8; MAX_ENCODED];
        let len = TraceEvent::Counter { name: "ab", value: 1 }.encode(&mut buf);
        let mut corrupted = buf[..len].to_vec();
        let str_start = len - 2;
        corrupted[str_start] = 0xFF;
        rejects(&corrupted, DecodeError::BadString);
    }
}
