//! The primary's replication hub: accepts standby subscriptions,
//! seeds each with a catch-up backlog read under the pipeline lock,
//! and runs one writer thread per peer that drains its frame queue
//! through the seeded link-fault layer.

use super::{relock, LinkAction, LinkDecision, Peer, ReplState, MAX_LINK_FRAME};
use dwqa_core::IntegrationPipeline;
use dwqa_obs::names;
use dwqa_store::{Frame, FrameKind, FrameStream};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How often the accept loop polls the stop flag.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Runs the hub accept loop until shutdown. `listener` must already be
/// non-blocking.
pub(crate) fn hub_loop(
    state: Arc<ReplState>,
    pipeline: Arc<Mutex<Option<IntegrationPipeline>>>,
    listener: TcpListener,
) {
    while !state.stopping() {
        match listener.accept() {
            Ok((socket, addr)) => {
                let state = Arc::clone(&state);
                let pipeline = Arc::clone(&pipeline);
                let label = addr.to_string();
                state.clone().spawn(move || {
                    subscriber_session(&state, &pipeline, socket, label);
                });
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Handles one standby from subscribe to disconnect: reads its resume
/// offset, seeds the backlog, then ships frames and heartbeats.
fn subscriber_session(
    state: &Arc<ReplState>,
    pipeline: &Arc<Mutex<Option<IntegrationPipeline>>>,
    socket: TcpStream,
    label: String,
) {
    let _ = socket.set_nodelay(true);
    let _ = socket.set_read_timeout(Some(state.cfg.heartbeat_timeout));
    let Some(subscribe) = read_subscribe(state, &socket) else {
        return;
    };

    // Backlog read and peer registration happen under the pipeline
    // lock: the store's FrameTap also fires under that lock, so every
    // frame is either in this backlog or broadcast to the registered
    // peer — no window where one is missed.
    let peer = {
        let guard = relock(pipeline);
        let Some(p) = guard.as_ref() else {
            return;
        };
        let backlog = match p.store() {
            Some(store) => match store.replication_backlog(subscribe.counter) {
                Ok(frames) => frames,
                Err(_) => return,
            },
            None => Vec::new(),
        };
        for _ in &backlog {
            state.counter(names::REPL_CATCHUP_FRAMES);
        }
        let writer = match socket.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        };
        let peer = Arc::new(Peer::new(label, backlog, writer));
        state.register_peer(&peer);
        peer
    };

    // Ack reader: a second thread drains the standby's ack frames so
    // a slow writer never starves quorum progress.
    {
        let state = Arc::clone(state);
        let peer = Arc::clone(&peer);
        let reader = socket;
        state.clone().spawn(move || {
            ack_reader(&state, &peer, reader);
        });
    }

    writer_loop(state, &peer, subscribe.counter);
    state.remove_peer(&peer);
}

/// Reads the standby's subscribe frame, or `None` on a bad/slow hello.
fn read_subscribe(state: &ReplState, socket: &TcpStream) -> Option<Frame> {
    let mut stream = FrameStream::new(MAX_LINK_FRAME);
    let mut socket = socket;
    let mut buf = [0u8; 4096];
    loop {
        if state.stopping() {
            return None;
        }
        match stream.next() {
            Ok(Some(frame)) if frame.kind == FrameKind::Subscribe => return Some(frame),
            Ok(Some(_)) => return None,
            Ok(None) => {}
            Err(_) => return None,
        }
        match socket.read(&mut buf) {
            Ok(0) => return None,
            Ok(n) => stream.push(&buf[..n]),
            Err(_) => return None,
        }
    }
}

/// Drains the standby's acks until its socket closes.
fn ack_reader(state: &ReplState, peer: &Arc<Peer>, mut socket: TcpStream) {
    let mut stream = FrameStream::new(MAX_LINK_FRAME);
    let mut buf = [0u8; 4096];
    while !state.stopping() && peer.connected.load(Ordering::SeqCst) {
        loop {
            match stream.next() {
                Ok(Some(frame)) if frame.kind == FrameKind::Ack => {
                    state.record_ack(peer, frame.counter);
                }
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(_) => {
                    peer.disconnect();
                    return;
                }
            }
        }
        match socket.read(&mut buf) {
            Ok(0) => {
                peer.disconnect();
                return;
            }
            Ok(n) => stream.push(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(_) => {
                peer.disconnect();
                return;
            }
        }
    }
}

/// Ships queued frames (through the chaos layer) and heartbeats when
/// idle, until the peer disconnects or the hub stops.
fn writer_loop(state: &Arc<ReplState>, peer: &Arc<Peer>, resume: u64) {
    let mut writer = match peer_writer(peer) {
        Some(w) => w,
        None => return,
    };
    // Hello heartbeat: announce the advertised client address right
    // away, so a fresh standby can redirect clients before the link
    // ever goes idle. It carries the *subscriber's* granted resume
    // offset, not our position — the backlog is still queued behind
    // it, and advertising further ahead would read as a gap.
    let hello = Frame::heartbeat(
        state.generation.load(Ordering::SeqCst),
        resume,
        &state.advertised,
    )
    .encode();
    if writer.write_all(&hello).is_err() {
        return;
    }
    while !state.stopping() && peer.connected.load(Ordering::SeqCst) {
        match peer.pop_wait(state.cfg.heartbeat_interval) {
            Some(frame) => {
                if !ship_frame(state, &mut writer, &frame) {
                    return;
                }
            }
            None => {
                // Idle: heartbeat carries the primary's position so a
                // follower missing dropped frames detects the gap, and
                // the advertised address so it can redirect clients.
                let hb = Frame::heartbeat(
                    state.generation.load(Ordering::SeqCst),
                    state.next_seq.load(Ordering::SeqCst),
                    &state.advertised,
                )
                .encode();
                if writer.write_all(&hb).is_err() {
                    return;
                }
            }
        }
    }
}

fn peer_writer(peer: &Arc<Peer>) -> Option<TcpStream> {
    peer.writer_clone()
}

/// Writes one record/checkpoint frame through the seeded link-fault
/// layer. Returns `false` when the connection must be abandoned (torn
/// write, half-open stall, or I/O error) — the follower resubscribes.
fn ship_frame(state: &ReplState, writer: &mut TcpStream, frame: &[u8]) -> bool {
    let decision = match &state.link_fault {
        Some(fault) => relock(fault).decide(frame.len()),
        None => LinkDecision::deliver(),
    };
    match decision.action {
        LinkAction::Drop => {
            // Silently lose the frame; the follower's gap detection
            // (next heartbeat or next record seq) forces a resubscribe
            // that re-reads it from the primary's backlog.
            state.counter(names::REPL_LINK_DROPS);
            true
        }
        LinkAction::Tear(keep) => {
            state.counter(names::REPL_LINK_TEARS);
            let keep = keep.min(frame.len());
            let _ = writer.write_all(&frame[..keep]);
            false
        }
        LinkAction::HalfOpen => {
            // Stall without writing, then abandon: models a link that
            // went dark while the kernel still buffered.
            state.counter(names::REPL_LINK_HALF_OPEN);
            std::thread::sleep(state.cfg.heartbeat_timeout);
            false
        }
        LinkAction::Deliver => {
            if let Some(delay) = decision.delay {
                std::thread::sleep(delay);
            }
            if writer.write_all(frame).is_err() {
                return false;
            }
            state.counter(names::REPL_FRAMES_SHIPPED);
            if decision.duplicate {
                if writer.write_all(frame).is_err() {
                    return false;
                }
                state.counter(names::REPL_FRAMES_SHIPPED);
            }
            true
        }
    }
}
