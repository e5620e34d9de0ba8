//! The motivating BI analysis: sales vs. temperature ranges.
//!
//! "The analysis of the range of temperatures that increase the last
//! minute flights to a city, in order to adjust the prices of these
//! tickets." Before Step 5 the query is simply unanswerable — the DW has
//! no weather data. After feeding, it is a join of the two stars over the
//! conformed City and Date levels.

use dwqa_warehouse::{AggFn, CubeQuery, Result, ResultSet, Value, Warehouse, WarehouseError};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One temperature band of the analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TemperatureBand {
    /// Inclusive lower bound (°C).
    pub lo: f64,
    /// Exclusive upper bound (°C).
    pub hi: f64,
    /// (city, day) points whose temperature fell in the band.
    pub days: usize,
    /// Last-minute tickets sold on those days to those cities.
    pub total_sales: usize,
    /// `total_sales / days`.
    pub avg_sales_per_day: f64,
}

/// Groups last-minute sales by the destination-city temperature band of
/// the sale's day. `band_width` is the band size in °C.
///
/// Returns [`WarehouseError::UnknownFact`]-style errors if the schema
/// lacks either star, and an empty vector when the weather fact has no
/// rows yet (the "before Step 5" state).
pub fn sales_by_temperature_band(
    warehouse: &Warehouse,
    band_width: f64,
) -> Result<Vec<TemperatureBand>> {
    sales_by_temperature_band_with(|q| q.run(warehouse), band_width)
}

/// [`sales_by_temperature_band`] with a pluggable query runner, so the
/// pipeline can route both roll-ups through its result cache
/// ([`crate::RollupCache`]) instead of executing directly.
pub fn sales_by_temperature_band_with(
    mut run: impl FnMut(&CubeQuery) -> Result<ResultSet>,
    band_width: f64,
) -> Result<Vec<TemperatureBand>> {
    if band_width <= 0.0 || !band_width.is_finite() {
        return Err(WarehouseError::IllegalAggregate {
            measure: "temperature_c".to_owned(),
            reason: format!("band width must be positive, got {band_width}"),
        });
    }
    // Weather per (city, date).
    let weather = run(&CubeQuery::on("City Weather")
        .group_by("City", "City")
        .group_by("Date", "Date")
        .aggregate("temperature_c", AggFn::Avg))?;
    // Sales per (destination city, date).
    let sales = run(&CubeQuery::on("Last Minute Sales")
        .group_by("Destination", "City")
        .group_by("Date", "Date")
        .aggregate("price", AggFn::Count))?;
    // Drill-across over the conformed (city, date) coordinates. The join
    // keys use the weather side as driver; city names are folded into a
    // map first so "barcelona" from the feed matches "Barcelona" from the
    // sales ETL.
    let mut sales_of: HashMap<(String, String), usize> = HashMap::new();
    for row in &sales.rows {
        let (Value::Text(city), date, Some(n)) = (&row[0], &row[1], row[2].as_f64()) else {
            continue;
        };
        sales_of.insert(
            (dwqa_common::text::fold(city), date.to_string()),
            n as usize,
        );
    }
    // Band accumulation over the weather points (days without sales count
    // as zero-sale days — essential for unbiased per-day averages).
    let mut bands: HashMap<i64, (usize, usize)> = HashMap::new();
    for row in &weather.rows {
        let (Value::Text(city), date, Some(t)) = (&row[0], &row[1], row[2].as_f64()) else {
            continue;
        };
        let key = (dwqa_common::text::fold(city), date.to_string());
        let band = (t / band_width).floor() as i64;
        let entry = bands.entry(band).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += sales_of.get(&key).copied().unwrap_or(0);
    }
    let mut out: Vec<TemperatureBand> = bands
        .into_iter()
        .map(|(band, (days, total_sales))| TemperatureBand {
            lo: band as f64 * band_width,
            hi: (band + 1) as f64 * band_width,
            days,
            total_sales,
            avg_sales_per_day: total_sales as f64 / days as f64,
        })
        .collect();
    out.sort_by(|a, b| a.lo.partial_cmp(&b.lo).unwrap_or(std::cmp::Ordering::Equal));
    Ok(out)
}

/// Renders the band analysis as an aligned table (used by examples and
/// experiment binaries).
pub fn render_bands(bands: &[TemperatureBand]) -> String {
    let mut out = String::from("band (ºC)      | days | sales | sales/day\n");
    out.push_str("---------------+------+-------+----------\n");
    for b in bands {
        out.push_str(&format!(
            "[{:>5.1}, {:>5.1}) | {:>4} | {:>5} | {:>8.2}\n",
            b.lo, b.hi, b.days, b.total_sales, b.avg_sales_per_day
        ));
    }
    out
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

    fn temp(city: &str, day: u32, celsius: f64) -> Answer {
        Answer {
            value: AnswerValue::Temperature {
                celsius,
                raw: celsius,
                unit: TempUnit::Celsius,
            },
            score: 1.0,
            url: "u".into(),
            sentence: String::new(),
            context_date: Date::from_ymd(2004, 1, day),
            context_location: Some(city.to_owned()),
        }
    }

    #[test]
    fn unanswerable_before_feeding_answerable_after() {
        let mut wh = Warehouse::new(integrated_schema());
        wh.load("Last Minute Sales", vec![sale("Barcelona", 1)])
            .unwrap();
        // Before Step 5: no weather rows → empty analysis.
        assert!(sales_by_temperature_band(&wh, 5.0).unwrap().is_empty());
        // After Step 5: the band appears.
        feed_weather(
            &mut wh,
            &[temp("Barcelona", 1, 18.0)],
            &TemperatureAxioms::default(),
        )
        .unwrap();
        let bands = sales_by_temperature_band(&wh, 5.0).unwrap();
        assert_eq!(bands.len(), 1);
        assert_eq!(bands[0].lo, 15.0);
        assert_eq!(bands[0].total_sales, 1);
    }

    #[test]
    fn bands_aggregate_days_and_sales() {
        let mut wh = Warehouse::new(integrated_schema());
        // Day 1: 18ºC, 3 sales. Day 2: 17ºC, 1 sale. Day 3: 2ºC, 0 sales.
        wh.load(
            "Last Minute Sales",
            vec![
                sale("Barcelona", 1),
                sale("Barcelona", 1),
                sale("Barcelona", 1),
                sale("Barcelona", 2),
            ],
        )
        .unwrap();
        feed_weather(
            &mut wh,
            &[
                temp("Barcelona", 1, 18.0),
                temp("Barcelona", 2, 17.0),
                temp("Barcelona", 3, 2.0),
            ],
            &TemperatureAxioms::default(),
        )
        .unwrap();
        let bands = sales_by_temperature_band(&wh, 5.0).unwrap();
        assert_eq!(bands.len(), 2);
        let cold = &bands[0];
        assert_eq!((cold.lo, cold.hi), (0.0, 5.0));
        assert_eq!(cold.days, 1);
        assert_eq!(cold.total_sales, 0);
        let warm = &bands[1];
        assert_eq!((warm.lo, warm.hi), (15.0, 20.0));
        assert_eq!(warm.days, 2);
        assert_eq!(warm.total_sales, 4);
        assert!((warm.avg_sales_per_day - 2.0).abs() < 1e-12);
    }

    #[test]
    fn negative_temperatures_band_correctly() {
        let mut wh = Warehouse::new(integrated_schema());
        feed_weather(
            &mut wh,
            &[temp("New York", 1, -3.0)],
            &TemperatureAxioms::default(),
        )
        .unwrap();
        let bands = sales_by_temperature_band(&wh, 5.0).unwrap();
        assert_eq!((bands[0].lo, bands[0].hi), (-5.0, 0.0));
    }

    #[test]
    fn invalid_band_width_is_rejected() {
        let wh = Warehouse::new(integrated_schema());
        assert!(sales_by_temperature_band(&wh, 0.0).is_err());
        assert!(sales_by_temperature_band(&wh, -1.0).is_err());
    }

    #[test]
    fn render_is_stable() {
        let bands = vec![TemperatureBand {
            lo: 15.0,
            hi: 20.0,
            days: 2,
            total_sales: 4,
            avg_sales_per_day: 2.0,
        }];
        let table = render_bands(&bands);
        assert!(table.contains("[ 15.0,  20.0)"));
        assert!(table.contains("2.00"));
    }
}
