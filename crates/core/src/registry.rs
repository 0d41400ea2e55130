//! The application-profile database (the paper's application-dedicated
//! database tables).

use cbes_trace::AppProfile;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// Thread-safe registry of application profiles keyed by name.
///
/// Multiple scheduler clients may query the registry concurrently while the
/// profiling subsystem inserts updated profiles.
#[derive(Debug, Default)]
pub struct ProfileRegistry {
    map: RwLock<BTreeMap<String, Arc<AppProfile>>>,
}

impl ProfileRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert (or replace) a profile under its own name.
    pub fn insert(&self, profile: impl Into<Arc<AppProfile>>) {
        let profile = profile.into();
        self.map.write().insert(profile.name.clone(), profile);
    }

    /// The profile for `name`, shared: a request borrows it for one
    /// evaluation, so the read lock covers a reference-count bump and
    /// not a deep copy.
    pub fn get(&self, name: &str) -> Option<Arc<AppProfile>> {
        self.map.read().get(name).cloned()
    }

    /// True when a profile is registered under `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.map.read().contains_key(name)
    }

    /// Remove a profile; returns it if present.
    pub fn remove(&self, name: &str) -> Option<Arc<AppProfile>> {
        self.map.write().remove(name)
    }

    /// Names of all registered applications, sorted.
    pub fn names(&self) -> Vec<String> {
        self.map.read().keys().cloned().collect()
    }

    /// Number of registered profiles.
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// True when no profiles are registered.
    pub fn is_empty(&self) -> bool {
        self.map.read().is_empty()
    }

    /// Persist every profile as `<dir>/<name>.profile.json` (the paper's
    /// durable application-database tables). Returns the number written.
    /// Profile names are sanitised for the filesystem.
    pub fn save_dir(&self, dir: &Path) -> std::io::Result<usize> {
        std::fs::create_dir_all(dir)?;
        let map = self.map.read();
        for (name, profile) in map.iter() {
            let file = format!("{}.profile.json", sanitise(name));
            std::fs::write(dir.join(file), profile.to_json())?;
        }
        Ok(map.len())
    }

    /// Load every `*.profile.json` in `dir` into a fresh registry.
    /// Malformed files are reported as errors, not skipped.
    pub fn load_dir(dir: &Path) -> std::io::Result<Self> {
        let reg = ProfileRegistry::new();
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(".profile.json"))
            {
                let text = std::fs::read_to_string(&path)?;
                let profile = AppProfile::from_json(&text).map_err(|e| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("{}: {e}", path.display()),
                    )
                })?;
                reg.insert(profile);
            }
        }
        Ok(reg)
    }
}

/// Replace filesystem-hostile characters in a profile name.
fn sanitise(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '.' || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap as Map;

    fn profile(name: &str) -> AppProfile {
        AppProfile {
            name: name.into(),
            procs: vec![],
            arch_ratios: Map::new(),
        }
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let r = ProfileRegistry::new();
        assert!(r.is_empty());
        r.insert(profile("lu.A"));
        r.insert(profile("hpl"));
        assert_eq!(r.len(), 2);
        assert!(r.contains("lu.A"));
        assert_eq!(r.get("hpl").expect("hpl was just inserted").name, "hpl");
        assert_eq!(r.names(), vec!["hpl".to_string(), "lu.A".to_string()]);
        assert!(r.remove("hpl").is_some());
        assert!(r.get("hpl").is_none());
    }

    #[test]
    fn insert_replaces_existing() {
        let r = ProfileRegistry::new();
        r.insert(profile("app"));
        let mut p2 = profile("app");
        p2.arch_ratios
            .insert(cbes_cluster::Architecture::Alpha, 2.0);
        r.insert(p2);
        assert_eq!(r.len(), 1);
        assert_eq!(
            r.get("app")
                .expect("app was just inserted")
                .arch_ratio(cbes_cluster::Architecture::Alpha),
            2.0
        );
    }

    #[test]
    fn save_and_load_directory_roundtrip() {
        let dir = std::env::temp_dir().join(format!("cbes-reg-{}", std::process::id()));
        let r = ProfileRegistry::new();
        r.insert(profile("lu.A.8"));
        r.insert(profile("hpl/10000")); // hostile name gets sanitised
        assert_eq!(r.save_dir(&dir).expect("temp dir is writable"), 2);
        let loaded = ProfileRegistry::load_dir(&dir).expect("saved dir loads back");
        assert_eq!(loaded.len(), 2);
        assert!(loaded.contains("lu.A.8"));
        assert!(loaded.contains("hpl/10000")); // name survives inside the JSON
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_dir_reports_malformed_files() {
        let dir = std::env::temp_dir().join(format!("cbes-reg-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir is creatable");
        std::fs::write(dir.join("broken.profile.json"), "{ not json")
            .expect("temp dir is writable");
        assert!(ProfileRegistry::load_dir(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let r = std::sync::Arc::new(ProfileRegistry::new());
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let r = r.clone();
                std::thread::spawn(move || {
                    r.insert(profile(&format!("app{i}")));
                    r.get(&format!("app{i}")).is_some()
                })
            })
            .collect();
        for h in handles {
            assert!(h.join().expect("insert thread panicked"));
        }
        assert_eq!(r.len(), 4);
    }
}
