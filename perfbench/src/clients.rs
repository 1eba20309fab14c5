//! The seeded closed-loop client model.
//!
//! Mirrors the `tmwia load` client: client `c`'s request kinds come
//! from `derive(seed, SERVICE_LOAD, (c << 32) | i)` against the default
//! mix (probe .6, post .2, read .1, recommend .1), probes walk
//! `(offset_c + probes) % m` sequentially, a Post replays the client's
//! last revealed grade, and a Post drawn before any reveal becomes a
//! probe. The stream is a pure function of `(seed, c, m)`.

use tmwia_billboard::PlayerId;
use tmwia_model::rng::{derive, tags};
use tmwia_service::{ClientMix, Request, RequestKind, Response};

/// `count` carried by Recommend requests (the `tmwia load` default).
pub const RECOMMEND_COUNT: u16 = 8;

pub struct Client {
    c: u64,
    offset: u64,
    probes_done: u64,
    last_grade: Option<(u32, bool)>,
    counter: u64,
    pub session: u64,
    pub player: PlayerId,
}

impl Client {
    pub fn new(seed: u64, c: u64, m: usize, session: u64, player: PlayerId) -> Self {
        Client {
            c,
            offset: derive(seed, tags::SERVICE_LOAD, c ^ 0x4F66_6673) % m as u64,
            probes_done: 0,
            last_grade: None,
            counter: 0,
            session,
            player,
        }
    }

    /// The next request in this client's stream.
    pub fn next(&mut self, seed: u64, mix: &ClientMix, m: usize) -> (RequestKind, Request) {
        let m = m as u64;
        let draw = derive(seed, tags::SERVICE_LOAD, (self.c << 32) | self.counter);
        self.counter += 1;
        match (mix.pick(draw), self.last_grade) {
            (RequestKind::Post, Some((object, grade))) => (
                RequestKind::Post,
                Request::Post {
                    session: self.session,
                    object,
                    grade,
                },
            ),
            (RequestKind::Probe | RequestKind::Post, _) => {
                let object = ((self.offset + self.probes_done) % m) as u32;
                self.probes_done += 1;
                (
                    RequestKind::Probe,
                    Request::Probe {
                        session: self.session,
                        object,
                        share: true,
                    },
                )
            }
            (RequestKind::Read, _) => {
                let jump = derive(seed, tags::SERVICE_LOAD, (self.c << 40) | self.counter);
                (
                    RequestKind::Read,
                    Request::Read {
                        object: ((self.offset + jump % m) % m) as u32,
                    },
                )
            }
            (RequestKind::Recommend, _) => (
                RequestKind::Recommend,
                Request::Recommend {
                    count: RECOMMEND_COUNT,
                },
            ),
        }
    }

    /// Remember revealed grades so Posts have something to replay.
    pub fn observe(&mut self, resp: &Response) {
        if let Response::Grade { object, value, .. } = resp {
            self.last_grade = Some((*object, *value));
        }
    }
}

/// Does `resp` correctly answer `req`? `Busy`, `Error` and
/// `ShuttingDown` never do.
pub fn answers(req: &Request, resp: &Response) -> bool {
    match (req, resp) {
        (
            Request::Probe { object, share, .. },
            Response::Grade {
                object: o, posted, ..
            },
        ) => o == object && posted == share,
        (Request::Post { object, .. }, Response::Posted { object: o, .. })
        | (Request::Read { object }, Response::Board { object: o, .. }) => o == object,
        (Request::Recommend { count }, Response::Recommended { objects, .. }) => {
            objects.len() <= usize::from(*count)
        }
        _ => false,
    }
}
