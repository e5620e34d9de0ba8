//! Multidimensional IR baseline (McCabe et al., SIGIR 2000 — ref. \[11\]).
//!
//! The related-work system the paper contrasts with: an IR index whose
//! documents are *categorised by location and time* so OLAP-style
//! operations (slice to a city, drill from a year to a month) restrict the
//! candidate set before term matching. It improves filtering but still
//! returns documents — not answers — which is exactly the limitation the
//! paper's QA integration removes. We implement it as a baseline for the
//! comparison experiments.

use crate::index::InvertedIndex;
use crate::search::{search_terms, SearchHit, Similarity};
use dwqa_common::{Date, Month};
use dwqa_ir::{DocId, DocumentStore};
use std::collections::HashMap;

/// A slice of the document cube along the location × time dimensions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CubeSlice {
    /// Keep only documents with this location (case-folded match).
    pub location: Option<String>,
    /// Keep only documents within this year.
    pub year: Option<i32>,
    /// Keep only documents within this month (requires `year`).
    pub month: Option<Month>,
}

impl CubeSlice {
    /// No restriction.
    pub fn all() -> CubeSlice {
        CubeSlice::default()
    }

    /// Restricts to a location.
    pub fn location(mut self, location: &str) -> CubeSlice {
        self.location = Some(dwqa_common::text::fold(location));
        self
    }

    /// Restricts to a year (roll-up level "year").
    pub fn year(mut self, year: i32) -> CubeSlice {
        self.year = Some(year);
        self
    }

    /// Drills down to a month within the year.
    pub fn month(mut self, year: i32, month: Month) -> CubeSlice {
        self.year = Some(year);
        self.month = Some(month);
        self
    }

    fn admits(&self, location: Option<&str>, date: Option<Date>) -> bool {
        if let Some(want) = &self.location {
            match location {
                Some(loc) if dwqa_common::text::fold(loc) == *want => {}
                _ => return false,
            }
        }
        if let Some(want_year) = self.year {
            match date {
                Some(d) if d.year() == want_year => {}
                _ => return false,
            }
        }
        if let Some(want_month) = self.month {
            match date {
                Some(d) if d.month() == want_month => {}
                _ => return false,
            }
        }
        true
    }
}

/// An IR index with location × time document categories.
#[derive(Debug, Clone)]
pub struct MultidimensionalIndex {
    /// Per document: (location, date) categories.
    categories: Vec<(Option<String>, Option<Date>)>,
    /// Documents per folded location (for category statistics).
    by_location: HashMap<String, Vec<DocId>>,
}

impl MultidimensionalIndex {
    /// Builds the category structure from document metadata.
    pub fn build(store: &DocumentStore) -> MultidimensionalIndex {
        let mut categories = Vec::with_capacity(store.len());
        let mut by_location: HashMap<String, Vec<DocId>> = HashMap::new();
        for (id, doc) in store.iter() {
            if let Some(loc) = &doc.location {
                by_location
                    .entry(dwqa_common::text::fold(loc))
                    .or_default()
                    .push(id);
            }
            categories.push((doc.location.clone(), doc.date));
        }
        MultidimensionalIndex {
            categories,
            by_location,
        }
    }

    /// Documents admitted by a slice.
    pub fn slice(&self, slice: &CubeSlice) -> Vec<DocId> {
        self.categories
            .iter()
            .enumerate()
            .filter(|(_, (loc, date))| slice.admits(loc.as_deref(), *date))
            .map(|(i, _)| DocId(i as u32))
            .collect()
    }

    /// Number of documents categorised under a location.
    pub fn location_count(&self, location: &str) -> usize {
        self.by_location
            .get(&dwqa_common::text::fold(location))
            .map_or(0, Vec::len)
    }

    /// OLAP-filtered term search: slice the cube, then rank only the
    /// admitted documents.
    pub fn search(
        &self,
        index: &InvertedIndex,
        terms: &[String],
        slice: &CubeSlice,
        k: usize,
    ) -> Vec<SearchHit> {
        let admitted: std::collections::HashSet<DocId> = self.slice(slice).into_iter().collect();
        search_terms(index, terms, Similarity::Bm25, usize::MAX)
            .into_iter()
            .filter(|h| admitted.contains(&h.doc))
            .take(k)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwqa_ir::{DocFormat, Document};
    use dwqa_nlp::Lexicon;

    fn store() -> DocumentStore {
        let mut s = DocumentStore::new();
        let mk = |url: &str, text: &str, loc: &str, y: i32, m: u32, d: u32| {
            Document::new(url, DocFormat::Plain, "", text)
                .with_location(loc)
                .with_date(Date::from_ymd(y, m, d).unwrap())
        };
        s.add(mk(
            "a",
            "financial crisis in the markets",
            "New York",
            1998,
            2,
            10,
        ));
        s.add(mk(
            "b",
            "financial crisis deepens further",
            "New York",
            1998,
            7,
            3,
        ));
        s.add(mk(
            "c",
            "financial news from the exchange",
            "London",
            1998,
            2,
            5,
        ));
        s.add(mk(
            "d",
            "weather report with temperatures",
            "Barcelona",
            2004,
            1,
            31,
        ));
        s
    }

    #[test]
    fn slice_by_location_and_time() {
        let md = MultidimensionalIndex::build(&store());
        // The paper's example from [11]: documents about "financial crisis"
        // published during the first quarter of 1998 in New York…
        let q1_ny = md.slice(
            &CubeSlice::all()
                .location("New York")
                .month(1998, Month::February),
        );
        assert_eq!(q1_ny, vec![DocId(0)]);
        // …then drilling down to July 1998.
        let jul_ny = md.slice(
            &CubeSlice::all()
                .location("New York")
                .month(1998, Month::July),
        );
        assert_eq!(jul_ny, vec![DocId(1)]);
    }

    #[test]
    fn year_rollup() {
        let md = MultidimensionalIndex::build(&store());
        assert_eq!(md.slice(&CubeSlice::all().year(1998)).len(), 3);
        assert_eq!(md.slice(&CubeSlice::all().year(2004)).len(), 1);
    }

    #[test]
    fn unrestricted_slice_admits_everything() {
        let md = MultidimensionalIndex::build(&store());
        assert_eq!(md.slice(&CubeSlice::all()).len(), 4);
    }

    #[test]
    fn location_counts() {
        let md = MultidimensionalIndex::build(&store());
        assert_eq!(md.location_count("new york"), 2);
        assert_eq!(md.location_count("Barcelona"), 1);
        assert_eq!(md.location_count("Madrid"), 0);
    }

    #[test]
    fn search_respects_the_slice() {
        let s = store();
        let lx = Lexicon::english();
        let idx = InvertedIndex::build(&lx, &s);
        let md = MultidimensionalIndex::build(&s);
        let terms = vec!["financial".to_owned(), "crisis".to_owned()];
        let everywhere = md.search(&idx, &terms, &CubeSlice::all(), 10);
        assert_eq!(everywhere.len(), 3);
        let ny_only = md.search(&idx, &terms, &CubeSlice::all().location("New York"), 10);
        assert_eq!(ny_only.len(), 2);
        assert!(ny_only
            .iter()
            .all(|h| h.doc == DocId(0) || h.doc == DocId(1)));
    }
}
