//! Quickstart — the paper's §1 example, in Rust.
//!
//! The F# original:
//!
//! ```fsharp
//! type W = JsonProvider<"http://api.owm.org/?q=NYC">
//! printfn "Lovely %f!" (W.GetSample().Main.Temp)
//! ```
//!
//! Here the sample is the Appendix A OpenWeatherMap response stored in
//! `examples/data/weather.json` (the paper suggests exactly this: "The
//! returned JSON is shown in Appendix A and can be used to run the code
//! against a local file"). The `json_provider!` macro infers the types at
//! **compile time**; `weather::sample()` is the analogue of
//! `GetSample()`.
//!
//! Run with: `cargo run --example quickstart`

use std::error::Error;

type AnyError = Box<dyn Error + Send + Sync>;

types_from_data::json_provider! {
    mod weather;
    root Weather;
    sample_file "examples/data/weather.json";
}

/// The §1 "after" picture: two lines of typed access.
fn provided_access() -> Result<f64, AnyError> {
    let w = weather::sample();
    Ok(w.main()?.temp()? as f64)
}

/// The §1 "before" picture: hand-written weakly typed matching, with an
/// error case at every level. Kept verbatim-ish for the B1 comparison in
/// `examples/tables.rs`.
fn hand_written_access() -> Result<f64, AnyError> {
    let doc = tfd_json::parse(weather::SAMPLE)?;
    match &doc {
        tfd_json::Json::Object(root) => match root.iter().find(|(k, _)| k == "main") {
            Some((_, tfd_json::Json::Object(main))) => {
                match main.iter().find(|(k, _)| k == "temp") {
                    Some((_, tfd_json::Json::Int(n))) => Ok(*n as f64),
                    Some((_, tfd_json::Json::Float(n))) => Ok(*n),
                    _ => Err("incorrect format".into()),
                }
            }
            _ => Err("incorrect format".into()),
        },
        _ => Err("incorrect format".into()),
    }
}

fn main() -> Result<(), AnyError> {
    // The provided way (the paper's two-liner):
    let temp = provided_access()?;
    println!("Lovely {temp}!");

    // The weakly typed way produces the same number with ~6x the code:
    assert_eq!(temp, hand_written_access()?);

    // The provided types go deeper than one field — every part of the
    // Appendix A response is typed:
    let w = weather::sample();
    println!("City:     {}", w.name()?);
    println!("Country:  {}", w.sys()?.country()?);
    println!("Pressure: {}", w.main()?.pressure()?);
    println!("Wind:     {} m/s", w.wind()?.speed()?);
    for condition in w.weather()? {
        println!("Sky:      {}", condition.description()?);
    }

    // `parse` (the provider's `Parse` method) types *other* documents of
    // the same shape — runtime data, compile-time types:
    let other = weather::parse(
        r#"{ "coord": {"lon": -0.13, "lat": 51.51},
             "weather": [{"id": 500, "main": "Rain",
                          "description": "light rain", "icon": "10d"}],
             "base": "stations",
             "main": {"temp": 12, "pressure": 1012, "humidity": 81,
                      "temp_min": 11, "temp_max": 13},
             "wind": {"speed": 4.1, "deg": 80},
             "clouds": {"all": 90},
             "dt": 1485789600,
             "sys": {"type": 1, "id": 5091, "message": 0.01,
                     "country": "GB", "sunrise": 1485762037,
                     "sunset": 1485794875},
             "id": 2643743, "name": "London", "cod": 200 }"#,
    )?;
    println!("{}: {}", other.name()?, other.main()?.temp()?);
    Ok(())
}
