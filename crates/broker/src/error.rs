//! Broker errors.

use std::error::Error;
use std::fmt;

use pscd_types::ServerId;

/// Error produced by the delivery engine.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BrokerError {
    /// The strategy and cost vectors differ in length.
    MismatchedCosts {
        /// Number of strategies supplied.
        strategies: usize,
        /// Number of costs supplied.
        costs: usize,
    },
    /// A server id was outside the proxy population.
    UnknownServer {
        /// The rejected server.
        server: ServerId,
        /// Number of configured servers.
        server_count: u16,
    },
    /// A strategy handed to the engine already held pages. The engine
    /// learns residency only from the outcomes a strategy reports, so it
    /// would never invalidate those pages.
    NonEmptyStrategy {
        /// The proxy the strategy was meant for.
        server: ServerId,
        /// Pages the strategy held.
        resident: usize,
    },
}

impl fmt::Display for BrokerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BrokerError::MismatchedCosts { strategies, costs } => {
                write!(f, "got {strategies} strategies but {costs} fetch costs")
            }
            BrokerError::UnknownServer {
                server,
                server_count,
            } => write!(
                f,
                "{server} out of range: only {server_count} proxies configured"
            ),
            BrokerError::NonEmptyStrategy { server, resident } => write!(
                f,
                "strategy for {server} already holds {resident} pages; engines take empty ones"
            ),
        }
    }
}

impl Error for BrokerError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = BrokerError::MismatchedCosts {
            strategies: 2,
            costs: 3,
        };
        assert!(e.to_string().contains("2 strategies"));
        let e = BrokerError::UnknownServer {
            server: ServerId::new(7),
            server_count: 4,
        };
        assert!(e.to_string().contains("server7"));
        let e = BrokerError::NonEmptyStrategy {
            server: ServerId::new(2),
            resident: 5,
        };
        assert!(e.to_string().contains("server2 already holds 5 pages"));
    }
}
