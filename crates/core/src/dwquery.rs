//! Future-work extension: DW queries generate QA questions.
//!
//! Section 5 again: "we will study … how an initial query in the DW
//! system can generate different queries in the QA system." The concrete
//! automation: when the analyst asks for the sales-vs-weather analysis
//! over a period, every destination city that *lacks* weather rows for
//! that period yields a natural-language question for the QA system —
//! closing the loop from Step 5 back to Step 4.

use dwqa_common::Month;
use dwqa_warehouse::{AggFn, CubeQuery, Predicate, Result, ResultSet, Value, Warehouse};
use std::collections::BTreeSet;

/// Destination cities with last-minute sales in `(year, month)` but no
/// weather rows for that month, each phrased as the paper's example
/// question ("What is the temperature in January of 2004 in Barcelona?").
pub fn questions_for_missing_weather(
    warehouse: &Warehouse,
    year: i32,
    month: Month,
) -> Result<Vec<String>> {
    questions_for_missing_weather_with(|q| q.run(warehouse), year, month)
}

/// [`questions_for_missing_weather`] with a pluggable query runner, so
/// the pipeline can route both roll-ups through its result cache
/// ([`crate::RollupCache`]) instead of executing directly.
pub fn questions_for_missing_weather_with(
    mut run: impl FnMut(&CubeQuery) -> Result<ResultSet>,
    year: i32,
    month: Month,
) -> Result<Vec<String>> {
    let month_key = Value::text(format!("{:04}-{:02}", year, month.number()));

    let sold_to = run(&CubeQuery::on("Last Minute Sales")
        .filter("Date", "Month", Predicate::Eq(month_key.clone()))
        .group_by("Destination", "City")
        .aggregate("price", AggFn::Count))?;
    let destinations: BTreeSet<String> = sold_to
        .rows
        .iter()
        .filter_map(|r| r[0].as_text().map(str::to_owned))
        .collect();

    let covered = run(&CubeQuery::on("City Weather")
        .filter("Date", "Month", Predicate::Eq(month_key))
        .group_by("City", "City")
        .aggregate("temperature_c", AggFn::Count))?;
    let covered: BTreeSet<String> = covered
        .rows
        .iter()
        .filter(|r| r[1].as_f64().unwrap_or(0.0) > 0.0)
        .filter_map(|r| r[0].as_text().map(str::to_owned))
        .collect();

    Ok(destinations
        .into_iter()
        .filter(|city| !covered.contains(city))
        .map(|city| {
            format!(
                "What is the temperature in {} of {} in {}?",
                month, year, city
            )
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feedback::feed_weather;
    use crate::schema::integrated_schema;
    use crate::TemperatureAxioms;
    use dwqa_common::Date;
    use dwqa_nlp::TempUnit;
    use dwqa_qa::{Answer, AnswerValue};
    use dwqa_warehouse::FactRowBuilder;

    fn sale(city: &str, day: u32) -> dwqa_warehouse::FactRow {
        let mut b = FactRowBuilder::new();
        b.measure("price", Value::Float(100.0))
            .measure("miles", Value::Float(500.0))
            .measure("traveler_rate", Value::Float(0.5))
            .role_member("Origin", &[("airport_name", Value::text("Elsewhere"))])
            .role_member(
                "Destination",
                &[
                    ("airport_name", Value::text(format!("{city} Airport"))),
                    ("city_name", Value::text(city)),
                ],
            )
            .role_member("Customer", &[("customer_name", Value::text("Ann"))])
            .role_member("Date", &[("date", Value::date(2004, 1, day).unwrap())]);
        b.build()
    }

    #[test]
    fn missing_cities_become_questions() {
        let mut wh = Warehouse::new(integrated_schema());
        wh.load(
            "Last Minute Sales",
            vec![sale("Barcelona", 5), sale("Madrid", 6)],
        )
        .unwrap();
        let qs = questions_for_missing_weather(&wh, 2004, Month::January).unwrap();
        assert_eq!(
            qs,
            vec![
                "What is the temperature in January of 2004 in Barcelona?",
                "What is the temperature in January of 2004 in Madrid?",
            ]
        );
    }

    #[test]
    fn fed_cities_stop_asking() {
        let mut wh = Warehouse::new(integrated_schema());
        wh.load(
            "Last Minute Sales",
            vec![sale("Barcelona", 5), sale("Madrid", 6)],
        )
        .unwrap();
        let a = Answer {
            value: AnswerValue::Temperature {
                celsius: 9.0,
                raw: 9.0,
                unit: TempUnit::Celsius,
            },
            score: 1.0,
            url: "u".into(),
            sentence: String::new(),
            context_date: Date::from_ymd(2004, 1, 5),
            context_location: Some("Barcelona".into()),
        };
        feed_weather(&mut wh, &[a], &TemperatureAxioms::default()).unwrap();
        let qs = questions_for_missing_weather(&wh, 2004, Month::January).unwrap();
        assert_eq!(
            qs,
            vec!["What is the temperature in January of 2004 in Madrid?"]
        );
    }

    #[test]
    fn other_months_do_not_interfere() {
        let mut wh = Warehouse::new(integrated_schema());
        wh.load("Last Minute Sales", vec![sale("Barcelona", 5)])
            .unwrap();
        // Sales are in January; asking about February yields nothing.
        let qs = questions_for_missing_weather(&wh, 2004, Month::February).unwrap();
        assert!(qs.is_empty());
    }
}
