//! One module per paper table/figure, and the related-work studies. See
//! the crate docs for the index.

pub mod ablations;
pub mod capacity;
pub mod criticality;
pub mod headtohead;
pub mod lifetime;
pub mod predictor_study;
pub mod sensitivity;
pub mod table2;
pub mod table3;
pub mod wburst;
