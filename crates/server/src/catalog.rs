//! Title catalogs with popularity weights.

use crate::zipf::Zipf;

/// One media object in the catalog.
#[derive(Debug, Clone, PartialEq)]
pub struct Title {
    /// Display name.
    pub name: String,
    /// Playback duration in minutes.
    pub duration_minutes: f64,
    /// Unnormalized popularity weight (relative request rate).
    pub weight: f64,
}

impl Title {
    /// Media length in slots for a guaranteed delay of `delay_minutes`,
    /// clamped to at least 1 slot.
    pub fn media_len(&self, delay_minutes: f64) -> u64 {
        assert!(delay_minutes > 0.0);
        ((self.duration_minutes / delay_minutes).ceil() as u64).max(1)
    }
}

/// An ordered catalog of titles (most popular first by convention).
#[derive(Debug, Clone, PartialEq)]
pub struct Catalog {
    titles: Vec<Title>,
}

impl Catalog {
    /// Builds a catalog from explicit titles.
    ///
    /// # Panics
    /// Panics if empty, or if any duration/weight is non-positive.
    pub fn new(titles: Vec<Title>) -> Self {
        assert!(
            !titles.is_empty(),
            "catalog must contain at least one title"
        );
        for t in &titles {
            assert!(
                t.duration_minutes > 0.0,
                "{}: non-positive duration",
                t.name
            );
            assert!(t.weight > 0.0, "{}: non-positive weight", t.name);
        }
        Self { titles }
    }

    /// A synthetic catalog of `n` titles with Zipf(`s`) popularity and the
    /// given playback durations cycled over the titles (e.g. a mix of 90-
    /// and 120-minute movies).
    ///
    /// # Panics
    /// Panics if `n == 0` or `durations_minutes` is empty.
    pub fn zipf(n: usize, s: f64, durations_minutes: &[f64]) -> Self {
        assert!(n >= 1 && !durations_minutes.is_empty());
        let z = Zipf::new(n, s);
        let titles = (0..n)
            .map(|i| Title {
                name: format!("title-{:02}", i + 1),
                duration_minutes: durations_minutes[i % durations_minutes.len()],
                weight: z.pmf(i),
            })
            .collect();
        Self::new(titles)
    }

    /// The titles.
    pub fn titles(&self) -> &[Title] {
        &self.titles
    }

    /// Number of titles.
    pub fn len(&self) -> usize {
        self.titles.len()
    }

    /// `true` iff the catalog has no titles (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.titles.is_empty()
    }

    /// Normalized request probabilities, in title order.
    pub fn probabilities(&self) -> Vec<f64> {
        let total: f64 = self.titles.iter().map(|t| t.weight).sum();
        self.titles.iter().map(|t| t.weight / total).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_catalog_is_normalized_and_ordered() {
        let c = Catalog::zipf(10, 1.0, &[90.0, 120.0]);
        assert_eq!(c.len(), 10);
        let p = c.probabilities();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        for i in 1..10 {
            assert!(p[i] <= p[i - 1] + 1e-12);
        }
        // Durations cycle.
        assert_eq!(c.titles()[0].duration_minutes, 90.0);
        assert_eq!(c.titles()[1].duration_minutes, 120.0);
        assert_eq!(c.titles()[2].duration_minutes, 90.0);
    }

    #[test]
    fn media_len_rounds_up() {
        let t = Title {
            name: "m".into(),
            duration_minutes: 100.0,
            weight: 1.0,
        };
        assert_eq!(t.media_len(15.0), 7); // ceil(100/15)
        assert_eq!(t.media_len(30.0), 4); // 3 slots would be 33.3 min each
        assert_eq!(t.media_len(1.0), 100);
        assert_eq!(t.media_len(500.0), 1); // clamped
    }

    #[test]
    #[should_panic]
    fn empty_catalog_rejected() {
        let _ = Catalog::new(vec![]);
    }

    #[test]
    #[should_panic]
    fn zero_weight_rejected() {
        let _ = Catalog::new(vec![Title {
            name: "bad".into(),
            duration_minutes: 90.0,
            weight: 0.0,
        }]);
    }
}
