//! Artifact descriptors.
//!
//! The tutorial stresses modular workflows whose every step produces
//! inspectable artifacts (Figs. 3–4), and the group's related work (ref
//! \[16\]) argues for data traceability. A task graph's run report lists
//! which task produced and consumed which artifact, with checksums, so a
//! finished run can answer "where did this file come from"
//! ([`crate::GraphRun::producer_of`]).

use crate::json::{parse_hex_u64, push_hex_u64, push_json_string, JsonValue};
use nsdf_util::{fnv1a64, Result};

/// Descriptor of one produced artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    /// Artifact name (unique within a run).
    pub name: String,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Content checksum.
    pub checksum: u64,
    /// Where the artifact lives (object key, path, or URL-ish string).
    pub location: String,
}

impl Artifact {
    /// Describe a byte payload stored at `location`.
    pub fn of_bytes(name: impl Into<String>, data: &[u8], location: impl Into<String>) -> Artifact {
        Artifact {
            name: name.into(),
            bytes: data.len() as u64,
            checksum: fnv1a64(data),
            location: location.into(),
        }
    }

    /// Append this artifact as a sorted-key JSON object.
    pub(crate) fn push_json(&self, out: &mut String) {
        out.push_str("{\"bytes\":");
        out.push_str(&self.bytes.to_string());
        out.push_str(",\"checksum\":");
        push_hex_u64(self.checksum, out);
        out.push_str(",\"location\":");
        push_json_string(&self.location, out);
        out.push_str(",\"name\":");
        push_json_string(&self.name, out);
        out.push('}');
    }

    /// Parse one artifact from its [`Artifact::push_json`] form.
    pub(crate) fn from_json_value(v: &JsonValue) -> Result<Artifact> {
        Ok(Artifact {
            name: v.field("name")?.str_of("artifact.name")?.to_string(),
            bytes: v.field("bytes")?.u64_of("artifact.bytes")?,
            checksum: parse_hex_u64(v.field("checksum")?, "artifact.checksum")?,
            location: v.field("location")?.str_of("artifact.location")?.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_constructors() {
        let a = Artifact::of_bytes("dem", b"payload", "store/dem.tif");
        assert_eq!(a.bytes, 7);
        assert_eq!(a.checksum, fnv1a64(b"payload"));
        assert_eq!(a.location, "store/dem.tif");
    }
}
