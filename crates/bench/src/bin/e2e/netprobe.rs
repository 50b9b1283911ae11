//! One coordinator–site link of the workload's own transport, with the site
//! end on a helper thread, so that the layer walk can push its real frames
//! through the real wire code and time them.

use crate::workloads::Transport;
use skalla_net::{
    star, CoordinatorTransport, Message, NetError, SiteTransport, TcpConfig, TcpCoordinator,
    TcpSiteListener,
};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

const RECV_TIMEOUT: Duration = Duration::from_secs(30);

pub struct NetProbe {
    coord: Box<dyn CoordinatorTransport>,
    /// Frames the site end received, handed back to the caller.
    arrived: Receiver<Message>,
    /// Frames the caller wants the site end to send up.
    replies: Sender<Message>,
    site: JoinHandle<()>,
}

/// The site end: strictly alternating, one frame down, one frame up.
fn serve(site: &dyn SiteTransport, arrived: &Sender<Message>, replies: &Receiver<Message>) {
    while let Ok(msg) = site.recv() {
        if arrived.send(msg).is_err() {
            return;
        }
        let Ok(reply) = replies.recv() else { return };
        if site.send(reply).is_err() {
            return;
        }
    }
}

fn io(e: NetError) -> String {
    format!("net probe: {e}")
}

impl NetProbe {
    pub fn open(transport: Transport) -> Result<NetProbe, String> {
        let (arrived_tx, arrived) = channel();
        let (replies, replies_rx) = channel();
        let spawn = |body: Box<dyn FnOnce() + Send>| {
            std::thread::Builder::new()
                .name("e2e-net-probe".into())
                .spawn(body)
                .map_err(|e| format!("net probe: spawning the site end: {e}"))
        };
        let (coord, site): (Box<dyn CoordinatorTransport>, _) = match transport {
            Transport::Channel => {
                let (coord, mut sites) = star(1);
                let site_net = sites.pop().expect("star(1) has one site");
                let site = spawn(Box::new(move || serve(&site_net, &arrived_tx, &replies_rx)))?;
                (Box::new(coord), site)
            }
            Transport::Tcp => {
                let cfg = TcpConfig::default();
                let listener = TcpSiteListener::bind("127.0.0.1:0").map_err(io)?;
                let addr = listener.local_addr().map_err(io)?.to_string();
                let site_cfg = cfg.clone();
                let site = spawn(Box::new(move || {
                    if let Ok(link) = listener.accept(&site_cfg) {
                        serve(&link, &arrived_tx, &replies_rx);
                    }
                }))?;
                (
                    Box::new(TcpCoordinator::connect(&[addr], &cfg).map_err(io)?),
                    site,
                )
            }
        };
        Ok(NetProbe {
            coord,
            arrived,
            replies,
            site,
        })
    }

    /// Coordinator → site; returns the frame as the site received it.
    pub fn down(&self, msg: Message) -> Result<Message, String> {
        self.coord.send(0, msg).map_err(io)?;
        self.arrived
            .recv_timeout(RECV_TIMEOUT)
            .map_err(|e| format!("net probe: site end: {e}"))
    }

    /// Site → coordinator (after a `down`); returns the frame as the
    /// coordinator received it.
    pub fn up(&self, msg: Message) -> Result<Message, String> {
        self.replies
            .send(msg)
            .map_err(|_| "net probe: site end has gone".to_string())?;
        self.coord.recv(RECV_TIMEOUT).map(|(_, m)| m).map_err(io)
    }

    /// Hang up and wait for the site end to finish.
    pub fn close(self) {
        let NetProbe {
            coord,
            arrived,
            replies,
            site,
        } = self;
        drop((coord, arrived, replies));
        let _ = site.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_cross_both_transports_unchanged() {
        for transport in [Transport::Channel, Transport::Tcp] {
            let probe = NetProbe::open(transport).unwrap();
            let big = Message::new(2, vec![7u8; 300_000]);
            assert_eq!(
                probe.down(Message::new(1, vec![1, 2, 3])).unwrap().payload,
                [1, 2, 3]
            );
            assert_eq!(probe.up(big.clone()).unwrap(), big);
            probe.close();
        }
    }
}
