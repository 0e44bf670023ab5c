//! Fixtures the crate's unit tests share.

use pscd_broker::PushScheme;
use pscd_core::StrategyKind;
use pscd_types::{Bytes, LiveEvent, PageId, PageKind, PageMeta, SimTime};

use crate::config::ServiceConfig;

/// A service over `pages` original pages and `servers` proxies.
pub(crate) fn tiny_config(servers: u16, pages: u32) -> ServiceConfig {
    let metas = (0..pages).map(|id| {
        let size = Bytes::new(10 + u64::from(id));
        PageMeta::new(PageId::new(id), size, SimTime::ZERO, PageKind::Original)
    });
    ServiceConfig::new(
        StrategyKind::Sg2 { beta: 2.0 },
        vec![Bytes::new(100); servers as usize],
        vec![1.0; servers as usize],
        PushScheme::Always,
        metas.collect(),
        1,
    )
}

pub(crate) fn publish(page: u32) -> LiveEvent {
    LiveEvent::Publish {
        time: SimTime::ZERO,
        page: PageId::new(page),
    }
}
