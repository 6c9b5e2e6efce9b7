//! Whole-program generation for header+records sources.
//!
//! §5.2 of the paper: "ad hoc sources are often simply a sequence of
//! records, perhaps prefixed by a header, so we can create a complete
//! accumulator program from minimal extra information … given only the
//! names of the optional header type and the record type". The same
//! pattern powers the generated formatting (§5.3.1) and XML-conversion
//! (§5.3.2) programs. These functions are those programs as library calls,
//! reading the source through the one ingest driver,
//! [`PadsParser::ingest`].

use pads::{
    keep_record, BaseMask, Mask, NoObserver, PadsParser, ParseDesc, ParseOptions, Registry,
    ResumePoint, Schema, SourceShape, Value,
};

use crate::acc::Accumulator;
use crate::fmt::Formatter;
use crate::xml::value_to_xml;

/// Reads `data` as `shape` says through the ingest driver, handing each
/// record to `each` in source order; the header is skipped.
fn for_each_record(
    schema: &Schema,
    registry: &Registry,
    options: ParseOptions,
    shape: &SourceShape,
    data: &[u8],
    mut each: impl FnMut(Value, ParseDesc),
) {
    let parser = PadsParser::new(schema, registry).with_options(options);
    let mask = Mask::all(BaseMask::CheckAndSet);
    let start = ResumePoint::default();
    let none = None::<&NoObserver>;
    parser.ingest(data, shape, &mask, 1, start, none, keep_record, |step| {
        shape.records_in(step, &mut each);
    });
}

/// The record type name of `shape` (empty when it has none, which the
/// callers' documented panics cover).
fn record_of(shape: &SourceShape) -> &str {
    shape.record.as_deref().unwrap_or_default()
}

/// The generated accumulator program: parse the whole source record by
/// record, fold every record into a profile, and return the report (§5.2).
///
/// # Panics
///
/// Panics if the shape has no record type, or names types not declared in
/// `schema`.
pub fn accumulator_program<'s>(
    schema: &'s Schema,
    registry: &Registry,
    options: ParseOptions,
    shape: &SourceShape,
    data: &[u8],
    tracked: usize,
    top_k: usize,
) -> (Accumulator<'s>, String) {
    let mut acc = Accumulator::with_limits(schema, record_of(shape), tracked, top_k);
    for_each_record(schema, registry, options, shape, data, |v, pd| acc.add(&v, &pd));
    let report = acc.report("<top>");
    (acc, report)
}

/// The generated formatting program: one delimited line per record, with
/// an optional date output format and mask-based column suppression
/// (§5.3.1).
///
/// # Panics
///
/// Panics if the shape names types not declared in `schema`.
pub fn formatting_program(
    schema: &Schema,
    registry: &Registry,
    options: ParseOptions,
    shape: &SourceShape,
    data: &[u8],
    formatter: &Formatter,
) -> String {
    let mut out = String::new();
    for_each_record(schema, registry, options, shape, data, |v, _| {
        out.push_str(&formatter.format(&v));
        out.push('\n');
    });
    out
}

/// The generated XML-conversion program: the whole source as one XML
/// document, parse descriptors embedded wherever the data was buggy
/// (§5.3.2).
///
/// # Panics
///
/// Panics if the shape names types not declared in `schema`.
pub fn xml_program(
    schema: &Schema,
    registry: &Registry,
    options: ParseOptions,
    shape: &SourceShape,
    data: &[u8],
    root_tag: &str,
) -> String {
    let mut out = format!("<{root_tag}>\n");
    for_each_record(schema, registry, options, shape, data, |v, pd| {
        out.push_str(&value_to_xml(&v, Some(&pd), record_of(shape), 2));
    });
    out.push_str(&format!("</{root_tag}>\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pads::descriptions;

    #[test]
    fn accumulator_program_over_sirius_with_header() {
        let registry = Registry::standard();
        let schema = descriptions::sirius();
        let (data, stats) = pads_gen::sirius::generate(&pads_gen::SiriusConfig {
            records: 300,
            syntax_errors: 4,
            sort_violations: 1,
            ..Default::default()
        });
        let shape = SourceShape::with_header("summary_header_t", "entry_t");
        let (acc, report) = accumulator_program(
            &schema,
            &registry,
            ParseOptions::default(),
            &shape,
            &data,
            1000,
            10,
        );
        assert_eq!(acc.records, 300);
        assert_eq!(acc.bad_records, 5);
        assert!(report.contains("<top>.header.order_num"), "{report}");
        let _ = stats;
    }

    #[test]
    fn formatting_program_produces_one_line_per_record() {
        let registry = Registry::standard();
        let schema = descriptions::clf();
        let (data, _) = pads_gen::clf::generate(&pads_gen::ClfConfig {
            records: 25,
            dash_length_rate: 0.0,
            ..Default::default()
        });
        let fmt = Formatter::new(&["|"]).with_date_format("%D:%T");
        let out = formatting_program(
            &schema,
            &registry,
            ParseOptions::default(),
            &SourceShape::records("entry_t"),
            &data,
            &fmt,
        );
        assert_eq!(out.lines().count(), 25);
        assert!(out.lines().all(|l| l.matches('|').count() >= 9), "{out}");
    }

    #[test]
    fn xml_program_wraps_records_in_a_root() {
        let registry = Registry::standard();
        let schema = descriptions::sirius();
        let (data, _) = pads_gen::sirius::generate(&pads_gen::SiriusConfig {
            records: 5,
            syntax_errors: 0,
            sort_violations: 0,
            ..Default::default()
        });
        let out = xml_program(
            &schema,
            &registry,
            ParseOptions::default(),
            &SourceShape::with_header("summary_header_t", "entry_t"),
            &data,
            "sirius",
        );
        assert!(out.starts_with("<sirius>\n"));
        assert!(out.ends_with("</sirius>\n"));
        assert_eq!(out.matches("<entry_t>").count(), 5);
    }
}
