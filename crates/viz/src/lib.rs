//! Rendering for LagAlyzer: episode sketches and characterization charts.
//!
//! The paper's tool draws episode sketches in a Swing GUI and produces its
//! study charts with MATLAB. This crate substitutes static rendering for
//! both: a dependency-free [`svg`] document builder, the [`sketch`] module
//! reproducing Fig 1/Fig 2-style episode sketches (time axis, nested
//! interval bars colored by type, stack-sample dots colored by thread
//! state along the top edge, hover tooltips with full stacks), an
//! [`ascii`] fallback for terminals, a [`timeline`] view of whole sessions
//! (the LiLa Viewer lineage), and [`charts`] for the study figures
//! (stacked bars for Figs 4/5/6/8, multi-series CDF lines for Fig 3, dot
//! plots for Fig 7).
//!
//! # Example
//!
//! ```
//! use lagalyzer_sim::scenarios;
//! use lagalyzer_viz::sketch::{render_sketch, SketchOptions};
//!
//! let scenario = scenarios::figure1();
//! let svg = render_sketch(&scenario.episode, &scenario.symbols, &SketchOptions::default());
//! assert!(svg.starts_with("<svg"));
//! assert!(svg.contains("DrawLine"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ascii;
pub mod charts;
pub mod color;
pub mod scale;
pub mod sketch;
pub mod svg;
pub mod timeline;

pub use ascii::ascii_sketch;
pub use sketch::{render_sketch, SketchOptions};
pub use timeline::{render_timeline, Timeline, TimelineOptions, TimelineRow, TimelineRows};
