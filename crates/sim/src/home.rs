//! Per-node home-side state: directory, memory versions, synchronization.

use dirext_core::blockmap::BlockMap;
use dirext_core::config::ProtocolConfig;
use dirext_core::dir::DirCtrl;
use dirext_core::proto::Exts;
use dirext_core::sharer::DirOrg;
use dirext_core::sync::{BarrierCtrl, LockCtrl};
use dirext_trace::BlockAddr;

/// The home side of one node: the directory (in the configured sharer-set
/// organization) for the blocks homed here, the queue-based lock
/// controller, the barrier controller, and the memory image (as debug
/// version stamps).
#[derive(Debug)]
pub(crate) struct Home {
    pub dir: DirCtrl,
    pub locks: LockCtrl,
    pub barriers: BarrierCtrl,
    pub mem_version: BlockMap<u64>,
}

impl Home {
    /// Builds one home. The `org` × `nprocs` pair must already have passed
    /// [`DirOrg::validate`] (the machine checks before building homes).
    pub(crate) fn new(nprocs: usize, org: DirOrg, protocol: &ProtocolConfig) -> Self {
        let dir = DirCtrl::with_org(nprocs, org, Exts::from_protocol(protocol))
            .expect("organization validated by Machine::new");
        Home {
            dir,
            locks: LockCtrl::new(),
            barriers: BarrierCtrl::new(nprocs as u32),
            mem_version: BlockMap::new(),
        }
    }

    /// Merges an incoming data version into the memory image.
    pub(crate) fn merge_version(&mut self, block: BlockAddr, version: u64) {
        let v = self.mem_version.get_or_insert_with(block, || 0);
        *v = (*v).max(version);
    }

    /// The memory image's version of `block` (0 if never written).
    pub(crate) fn version_of(&self, block: BlockAddr) -> u64 {
        self.mem_version.get(block).copied().unwrap_or(0)
    }
}
