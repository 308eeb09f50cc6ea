//! Data sets for `parclust`: synthetic generators mirroring the paper's
//! evaluation inputs, surrogates for its real data sets, and point IO.

pub mod block;
pub mod generators;
pub mod io;

pub use block::{PointBlock, BLOCK_LEN};
pub use generators::{
    gps_like, seed_spreader, seed_spreader_with, sensor_like, uniform_fill, SeedSpreaderParams,
};
pub use io::{
    chunked_header, read_chunked, read_csv, write_chunked, write_csv, ChunkedHeader, ChunkedReader,
    ChunkedWriter, DEFAULT_CHUNK_LEN,
};
