//! Reading a rendered `gcatch check --json` report back for the reference
//! check: the set of channels BMOC reported, and whether any incident or
//! degraded (incomplete) channel rode along.

use std::collections::BTreeSet;

/// What the reference check needs from one rendered report.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Findings {
    /// Primitive names of every BMOC diagnostic.
    pub bmoc: BTreeSet<String>,
    /// The report carries an `incidents` array.
    pub incidents: bool,
    /// Some diagnostic came from a degradation rung, i.e. a channel whose
    /// analysis did not complete at full precision.
    pub degraded: bool,
}

/// Scans a report. The renderer escapes every quote inside string values,
/// so the key patterns below cannot match inside a string.
pub fn findings(json: &str) -> Findings {
    let mut bmoc = BTreeSet::new();
    let mut rest = json;
    while let Some(at) = rest.find("\"checker\":\"bmoc\"") {
        rest = &rest[at..];
        // The diagnostic's `primitive` key follows its `checker` key.
        let name = rest
            .find("\"primitive\":")
            .map(|p| &rest[p + "\"primitive\":".len()..])
            .and_then(|r| r.strip_prefix("{\"name\":\""))
            .and_then(|r| r.find('"').map(|end| r[..end].to_string()))
            .unwrap_or_else(|| "<no primitive>".to_string());
        bmoc.insert(name);
        rest = &rest[1..];
    }
    Findings {
        bmoc,
        incidents: json.contains("\"incidents\":["),
        degraded: json.contains("\"degradation_rung\":"),
    }
}

/// Checks a report against the planted channels; `Err` says what differs.
pub fn check(json: &str, planted: &BTreeSet<String>) -> Result<(), String> {
    let f = findings(json);
    if f.incidents {
        return Err("report carries incidents".to_string());
    }
    if f.degraded {
        return Err("report carries a degraded channel".to_string());
    }
    if &f.bmoc != planted {
        let missed: Vec<&String> = planted.difference(&f.bmoc).take(3).collect();
        let extra: Vec<&String> = f.bmoc.difference(planted).take(3).collect();
        return Err(format!(
            "BMOC set differs from the planted set: {} reported, {} planted, missed {missed:?}, extra {extra:?}",
            f.bmoc.len(),
            planted.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const ONE: &str = r#"{"version":1,"diagnostics":[{"id":"GC-1","checker":"bmoc","kind":"BMOC-C","severity":"error","primitive":{"name":"outDone","span":"4:5"},"ops":[{"what":"send on \"checker\":\"bmoc\"","func":"f","span":"8:9"}],"witness":[],"notes":""},{"id":"GC-2","checker":"double-lock","kind":"double lock","severity":"error","primitive":{"name":"mu","span":"1:1"},"ops":[],"witness":[],"notes":""}]}"#;

    #[test]
    fn reads_bmoc_primitives_only() {
        let f = findings(ONE);
        assert_eq!(f.bmoc, BTreeSet::from(["outDone".to_string()]));
        assert!(!f.incidents && !f.degraded);
        assert!(check(ONE, &BTreeSet::from(["outDone".to_string()])).is_ok());
        let err = check(ONE, &BTreeSet::from(["other".to_string()])).unwrap_err();
        assert!(err.contains("missed [\"other\"]"), "{err}");
    }

    #[test]
    fn incidents_and_degraded_channels_fail_the_check() {
        let with_incident = r#"{"version":1,"diagnostics":[],"incidents":[{"kind":"checker","name":"bmoc","message":"boom","rung":0}]}"#;
        assert!(findings(with_incident).incidents);
        assert!(check(with_incident, &BTreeSet::new()).is_err());
        let degraded = ONE.replace(
            r#""notes":"""#,
            r#""notes":"","provenance":{"degradation_rung":2}"#,
        );
        assert!(findings(&degraded).degraded);
        assert!(check(r#"{"version":1,"diagnostics":[]}"#, &BTreeSet::new()).is_ok());
    }
}
