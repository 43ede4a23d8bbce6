//! # `nrslb-cli` — the `nrslb` command-line tool
//!
//! Operator tooling over the workspace's libraries. Store files on disk
//! use the RSF snapshot encoding (`RSF1-SNAP`), so a store file *is* a
//! feed snapshot — the same bytes a publisher would sign.
//!
//! ```text
//! nrslb store new  --out store.rsf [--name NAME]
//! nrslb store show --store store.rsf
//! nrslb store add-root --store store.rsf --cert root.der
//! nrslb store distrust --store store.rsf --fingerprint HEX --why TEXT
//! nrslb store attach-gcc --store store.rsf --fingerprint HEX --gcc file.dl --name NAME
//! nrslb gcc check --gcc file.dl
//! nrslb validate --store store.rsf --chain leaf.der,int.der[,...] \
//!                [--usage TLS|S/MIME] [--host NAME] [--time UNIX] [--mode ua|hammurabi]
//! nrslb convert --chain leaf.der,int.der,root.der     # chain -> Datalog facts
//! nrslb daemon --store store.rsf --socket PATH
//! nrslb demo make-pki --dir DIR                       # demo certs + store
//! nrslb demo incidents                                # the E9 matrix
//! nrslb demo quorum [--k K --n N]                     # k-of-n feed signing tour
//! ```
//!
//! The command implementations live in this library so integration tests
//! drive them directly; `main.rs` is a thin wrapper.

#![warn(missing_docs)]

pub mod commands;
pub mod opts;

pub use commands::run;

use std::fmt;

/// CLI failure modes.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line.
    Usage(String),
    /// I/O problem with a named file.
    Io(String, std::io::Error),
    /// A library layer rejected the input.
    Invalid(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage: {msg}"),
            CliError::Io(path, e) => write!(f, "{path}: {e}"),
            CliError::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}
