//! `dustctl` internals: the network-state file format and the subcommand
//! implementations, exposed as a library so they are unit-testable.

#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod format;
mod run;
