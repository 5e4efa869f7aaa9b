//! The layer ladder: one seeded attribute op stream replayed against
//! each layer's public API in turn, from the in-process `Space` up to a
//! `TdpHandle`. A layer's self time is the difference between adjacent
//! rungs; every rung sees the same ops in the same order.

use crate::gen::{self, Rng, Zipf};
use crate::harness::{ns_since, Fail, Spans};
use crate::measure;
use bytes::BytesMut;
use std::sync::OnceLock;
use std::time::Instant;
use tdp_attrspace::{AttrClient, ClientId, Space};
use tdp_core::TdpHandle;
use tdp_proto::{
    decode_frame_with, encode_frame_into, ContextId, DecodeScratch, Message, Reply, TdpError,
    TdpResult,
};
use tdp_wire::{Transport, WireConn};

/// Size of the hot key space and of the never-written miss space.
pub const KEYS: usize = 1024;

pub fn key(k: usize) -> &'static str {
    static NAMES: OnceLock<Vec<String>> = OnceLock::new();
    &NAMES.get_or_init(|| (0..KEYS).map(|k| format!("attr.{k:04}")).collect())[k]
}

pub fn miss_key(k: usize) -> &'static str {
    static NAMES: OnceLock<Vec<String>> = OnceLock::new();
    &NAMES.get_or_init(|| (0..KEYS).map(|k| format!("miss.{k:04}")).collect())[k]
}

fn zipf() -> &'static Zipf {
    static Z: OnceLock<Zipf> = OnceLock::new();
    Z.get_or_init(|| Zipf::new(KEYS))
}

/// One `attr-rr` op.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Op {
    /// `tdp_get` of a key that always exists.
    Get(usize),
    /// `tdp_put` of a fresh version of a key.
    Put(usize),
    /// `try_get` of a key that never exists.
    Miss(usize),
}

/// The seeded op stream of one driver thread: 70% get hits, 20% puts,
/// 10% misses, keys Zipf-skewed over 1024.
pub struct OpStream(Rng);

impl OpStream {
    pub fn new(seed: u64, thread: usize) -> OpStream {
        OpStream(Rng::new(seed, 1000 + thread as u64))
    }

    pub fn next_op(&mut self) -> Op {
        let k = zipf().sample(&mut self.0);
        match self.0.below(10) {
            0..=6 => Op::Get(k),
            7..=8 => Op::Put(k),
            _ => Op::Miss(k),
        }
    }
}

/// A layer that can serve the three `attr-rr` calls.
pub trait Target {
    fn put(&mut self, key: &str, value: &str) -> TdpResult<()>;
    /// A get of a key that exists; returns its value.
    fn get(&mut self, k: usize) -> TdpResult<String>;
    fn try_get(&mut self, key: &str) -> TdpResult<String>;
}

impl Target for TdpHandle {
    fn put(&mut self, key: &str, value: &str) -> TdpResult<()> {
        TdpHandle::put(self, key, value)
    }
    fn get(&mut self, k: usize) -> TdpResult<String> {
        TdpHandle::get(self, key(k))
    }
    fn try_get(&mut self, key: &str) -> TdpResult<String> {
        TdpHandle::try_get(self, key)
    }
}

/// `tdp-attrspace` client rung: the session a handle wraps.
pub struct ClientTarget {
    pub client: AttrClient,
    pub ctx: ContextId,
}

impl Target for ClientTarget {
    fn put(&mut self, key: &str, value: &str) -> TdpResult<()> {
        self.client.put(self.ctx, key, value)
    }
    fn get(&mut self, k: usize) -> TdpResult<String> {
        self.client.get(self.ctx, key(k))
    }
    fn try_get(&mut self, key: &str) -> TdpResult<String> {
        self.client.try_get(self.ctx, key)
    }
}

/// Reply of a `Space` call addressed to `client`.
fn space_reply(outs: Vec<(ClientId, Reply)>, client: ClientId) -> TdpResult<Reply> {
    match outs.into_iter().find(|(c, _)| *c == client) {
        Some((_, Reply::Err(e))) => Err(e),
        Some((_, r)) => Ok(r),
        None => Err(TdpError::Protocol("space sent no reply".into())),
    }
}

/// `Space` rung: the pure state machine, in process, no lock.
pub struct SpaceTarget {
    pub space: Space,
    pub client: ClientId,
    pub ctx: ContextId,
    /// Replies routed by puts, and puts made.
    pub outs: u64,
    pub puts: u64,
}

impl SpaceTarget {
    /// A space holding version 0 of every key, as after set-up.
    pub fn preloaded(seed: u64, ctx: ContextId) -> SpaceTarget {
        let mut t = SpaceTarget {
            space: Space::new(),
            client: 1,
            ctx,
            outs: 0,
            puts: 0,
        };
        t.space.join(t.client, ctx);
        let mut buf = String::new();
        for k in 0..KEYS {
            gen::fill_value(&mut buf, seed, k, 0);
            t.space.put(t.client, ctx, key(k), &buf);
        }
        t
    }
}

impl Target for SpaceTarget {
    fn put(&mut self, key: &str, value: &str) -> TdpResult<()> {
        let outs = self.space.put(self.client, self.ctx, key, value);
        self.outs += outs.len() as u64;
        self.puts += 1;
        space_reply(outs, self.client).map(|_| ())
    }
    fn get(&mut self, k: usize) -> TdpResult<String> {
        match space_reply(
            self.space.get(self.client, self.ctx, key(k), true),
            self.client,
        )? {
            Reply::Value { value, .. } => Ok(value),
            other => Err(TdpError::Protocol(format!("unexpected {other:?}"))),
        }
    }
    fn try_get(&mut self, key: &str) -> TdpResult<String> {
        match space_reply(
            self.space.get(self.client, self.ctx, key, false),
            self.client,
        )? {
            Reply::Value { value, .. } => Ok(value),
            other => Err(TdpError::Protocol(format!("unexpected {other:?}"))),
        }
    }
}

/// Latest value of every key as a rung without a server must answer:
/// the codec and echo rungs carry it in the reply they stand in for.
pub struct Mirror(Vec<String>);

impl Mirror {
    pub fn preloaded(seed: u64) -> Mirror {
        Mirror(
            (0..KEYS)
                .map(|k| {
                    let mut v = String::new();
                    gen::fill_value(&mut v, seed, k, 0);
                    v
                })
                .collect(),
        )
    }

    fn set(&mut self, key: &str, value: &str) {
        let k: usize = key[5..].parse().expect("hot key name");
        self.0[k].clear();
        self.0[k].push_str(value);
    }
}

/// `tdp-proto` rung: each op's request and reply frames are encoded and
/// decoded as the client and server would, with the wire's recycled
/// buffer and decode scratch. Only the codec calls are timed.
pub struct CodecTarget {
    pub ctx: ContextId,
    pub mirror: Mirror,
    buf: BytesMut,
    scratch: DecodeScratch,
    pub codec_ns: u64,
    pub codec_allocs: u64,
    pub frames: u64,
}

impl CodecTarget {
    pub fn new(ctx: ContextId, mirror: Mirror) -> CodecTarget {
        CodecTarget {
            ctx,
            mirror,
            buf: BytesMut::with_capacity(256),
            scratch: DecodeScratch::new(),
            codec_ns: 0,
            codec_allocs: 0,
            frames: 0,
        }
    }

    /// Encode and decode one frame; returns the decoded message.
    fn round(&mut self, msg: &Message) -> TdpResult<Message> {
        let a = measure::allocs();
        let t = Instant::now();
        encode_frame_into(msg, &mut self.buf);
        let out = decode_frame_with(&mut self.buf, &mut self.scratch);
        self.codec_ns += ns_since(t);
        self.codec_allocs += measure::allocs() - a;
        self.frames += 1;
        out.map_err(|e| TdpError::Protocol(e.to_string()))
    }

    /// Request frame then reply frame; the decoded request is recycled
    /// the way the server's receive loop recycles it.
    fn exchange(&mut self, req: Message, reply: Reply) -> TdpResult<Reply> {
        let got = self.round(&req)?;
        if got != req {
            return Err(TdpError::Protocol(
                "request frame did not round-trip".into(),
            ));
        }
        self.scratch.recycle_message(got);
        match self.round(&Message::Reply(reply))? {
            Message::Reply(Reply::Err(e)) => Err(e),
            Message::Reply(r) => Ok(r),
            other => Err(TdpError::Protocol(format!("unexpected {other:?}"))),
        }
    }
}

impl Target for CodecTarget {
    fn put(&mut self, key: &str, value: &str) -> TdpResult<()> {
        let req = Message::Put {
            ctx: self.ctx,
            key: key.to_string(),
            value: value.to_string(),
        };
        self.mirror.set(key, value);
        self.exchange(req, Reply::Ok).map(|_| ())
    }
    fn get(&mut self, k: usize) -> TdpResult<String> {
        let req = Message::Get {
            ctx: self.ctx,
            key: key(k).to_string(),
            blocking: true,
        };
        let reply = Reply::Value {
            key: key(k).to_string(),
            value: self.mirror.0[k].clone(),
        };
        match self.exchange(req, reply)? {
            Reply::Value { value, .. } => Ok(value),
            other => Err(TdpError::Protocol(format!("unexpected {other:?}"))),
        }
    }
    fn try_get(&mut self, key: &str) -> TdpResult<String> {
        let req = Message::Get {
            ctx: self.ctx,
            key: key.to_string(),
            blocking: false,
        };
        let reply = Reply::Err(TdpError::AttributeNotFound(key.to_string()));
        match self.exchange(req, reply)? {
            Reply::Value { value, .. } => Ok(value),
            other => Err(TdpError::Protocol(format!("unexpected {other:?}"))),
        }
    }
}

/// `tdp-wire` rung: each op's request message over a raw `WireConn` to
/// a benchmark-owned echo thread, on the same backend as the world.
/// The echo must equal the request; values come from the mirror.
pub struct EchoTarget {
    pub conn: WireConn,
    pub ctx: ContextId,
    pub mirror: Mirror,
    /// Allocations the benchmark itself made building requests and
    /// stand-in replies: two per op (key + value, key + reply string).
    pub own_allocs: u64,
}

impl EchoTarget {
    pub fn new(conn: WireConn, ctx: ContextId, mirror: Mirror) -> EchoTarget {
        EchoTarget {
            conn,
            ctx,
            mirror,
            own_allocs: 0,
        }
    }

    fn rtt(&mut self, msg: Message) -> TdpResult<()> {
        self.own_allocs += 2;
        self.conn.send_msg(&msg)?;
        if self.conn.recv_msg()? != msg {
            return Err(TdpError::Protocol("echo differs from request".into()));
        }
        Ok(())
    }
}

impl Target for EchoTarget {
    fn put(&mut self, key: &str, value: &str) -> TdpResult<()> {
        self.mirror.set(key, value);
        self.rtt(Message::Put {
            ctx: self.ctx,
            key: key.to_string(),
            value: value.to_string(),
        })
    }
    fn get(&mut self, k: usize) -> TdpResult<String> {
        self.rtt(Message::Get {
            ctx: self.ctx,
            key: key(k).to_string(),
            blocking: true,
        })?;
        Ok(self.mirror.0[k].clone())
    }
    fn try_get(&mut self, key: &str) -> TdpResult<String> {
        self.rtt(Message::Get {
            ctx: self.ctx,
            key: key.to_string(),
            blocking: false,
        })?;
        Err(TdpError::AttributeNotFound(key.to_string()))
    }
}

/// Echo server for the wire rung: `n` connections over `transport`, one
/// echo thread each; the threads end when their client closes.
pub fn echo_pairs(
    transport: &dyn Transport,
    n: usize,
) -> TdpResult<(Vec<WireConn>, Vec<std::thread::JoinHandle<()>>)> {
    let host = tdp_proto::HostId(1);
    let listener = transport.listen(host, 0)?;
    let mut clients = Vec::new();
    let mut threads = Vec::new();
    for i in 0..n {
        clients.push(transport.connect(host, &listener.local_endpoint())?);
        let mut server = listener.accept()?;
        threads.push(
            std::thread::Builder::new()
                .name(format!("bench-echo-{i}"))
                .spawn(move || {
                    while let Ok(msg) = server.recv_msg() {
                        if server.send_msg(&msg).is_err() {
                            break;
                        }
                    }
                })
                .expect("spawn echo thread"),
        );
    }
    listener.close();
    Ok((clients, threads))
}

/// One closed-loop driver of an op stream against a rung.
pub struct Driver<T> {
    pub target: T,
    ops: OpStream,
    seed: u64,
    thread: usize,
    threads: usize,
    puts: u64,
    op: u64,
    buf: String,
    pub spans: Option<(Spans, &'static str)>,
    parked: Option<(Spans, &'static str)>,
}

/// Stream ids at and above this one are warm-up streams.
const WARM_UP_STREAM: usize = 1 << 20;

impl<T: Target> Driver<T> {
    pub fn new(target: T, seed: u64, thread: usize, threads: usize) -> Driver<T> {
        Driver {
            target,
            ops: OpStream::new(seed, thread),
            seed,
            thread,
            threads,
            puts: 0,
            op: 0,
            buf: String::with_capacity(16 * 1024 + gen::HEADER),
            spans: None,
            parked: None,
        }
    }

    /// Record a span named `name` around every call from now on.
    pub fn traced(mut self, name: &'static str, epoch: Instant) -> Self {
        self.spans = Some((Spans::new(self.thread, epoch), name));
        self
    }

    /// Switch to a separate warm-up stream, with spans off, until
    /// [`Driver::end_warm_up`]: caches, pools and lazy set-up fill
    /// without consuming the measured stream.
    pub fn begin_warm_up(&mut self) {
        self.ops = OpStream::new(self.seed, WARM_UP_STREAM + self.thread);
        self.parked = self.spans.take();
    }

    /// Back to the start of the measured stream.
    pub fn end_warm_up(&mut self) {
        self.ops = OpStream::new(self.seed, self.thread);
        self.op = 0;
        self.spans = self.parked.take();
    }

    /// Run the next op; returns its latency. The check runs after the
    /// clock stops.
    pub fn step(&mut self) -> Result<u64, Fail> {
        let op = self.ops.next_op();
        let idx = self.op;
        self.op += 1;
        if let Op::Put(k) = op {
            // Versions are unique per driver thread: preload wrote 0.
            self.puts += 1;
            let ver = self.puts * self.threads as u64 + self.thread as u64;
            gen::fill_value(&mut self.buf, self.seed, k, ver);
        }
        let t = Instant::now();
        let res = match op {
            Op::Put(k) => self.target.put(key(k), &self.buf).map(|()| None),
            Op::Get(k) => self.target.get(k).map(Some),
            Op::Miss(k) => self.target.try_get(miss_key(k)).map(Some),
        };
        let lat = ns_since(t);
        if let Some((spans, name)) = &mut self.spans {
            spans.record(name, idx, t, lat);
        }
        match (op, res) {
            (Op::Put(_), Ok(_)) => Ok(lat),
            (Op::Get(k), Ok(Some(v))) if gen::check_value(&v, self.seed, k) => Ok(lat),
            (Op::Get(k), Ok(_)) => Err(Fail::Wrong(format!(
                "get {} returned a malformed value",
                key(k)
            ))),
            (Op::Miss(_), Err(TdpError::AttributeNotFound(_))) => Ok(lat),
            (Op::Miss(k), Ok(_)) => Err(Fail::Wrong(format!(
                "miss {} returned a value",
                miss_key(k)
            ))),
            (op, Err(e)) => Err(Fail::Error(format!("{op:?}: {e}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_mix_matches_the_spec() {
        let mut s = OpStream::new(9, 0);
        let ops: Vec<Op> = (0..20_000).map(|_| s.next_op()).collect();
        let share =
            |f: fn(&Op) -> bool| ops.iter().filter(|o| f(o)).count() as f64 / ops.len() as f64;
        assert!((share(|o| matches!(o, Op::Get(_))) - 0.7).abs() < 0.02);
        assert!((share(|o| matches!(o, Op::Put(_))) - 0.2).abs() < 0.02);
        let mut again = OpStream::new(9, 0);
        assert!(ops.iter().all(|&o| o == again.next_op()), "replay differs");
    }

    #[test]
    fn space_and_codec_rungs_answer_identically() {
        let ctx = ContextId(7);
        let mut space = Driver::new(SpaceTarget::preloaded(5, ctx), 5, 0, 1);
        let mut codec = Driver::new(CodecTarget::new(ctx, Mirror::preloaded(5)), 5, 0, 1);
        for _ in 0..2_000 {
            space.step().expect("space op");
            codec.step().expect("codec op");
        }
        assert_eq!(codec.target.frames, 4_000);
    }

    #[test]
    fn wrong_values_fail_the_check() {
        struct Liar;
        impl Target for Liar {
            fn put(&mut self, _: &str, _: &str) -> TdpResult<()> {
                Ok(())
            }
            fn get(&mut self, _: usize) -> TdpResult<String> {
                Ok("not a value".into())
            }
            fn try_get(&mut self, _: &str) -> TdpResult<String> {
                Ok("present".into())
            }
        }
        let mut d = Driver::new(Liar, 1, 0, 1);
        let wrong = (0..100)
            .filter(|_| matches!(d.step(), Err(Fail::Wrong(_))))
            .count();
        assert!(wrong > 70, "{wrong} of 100 lies caught");
    }
}
