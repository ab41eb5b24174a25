//! Seeded inputs: the store configuration, album specs, uploads and
//! read requests. Everything here is a pure function of `--seed`.

use lodify_context::{Gazetteer, Poi};
use lodify_core::albums::AlbumSpec;
use lodify_core::platform::Upload;
use lodify_core::web::{self, Request};
use lodify_rdf::Point;
use lodify_relational::WorkloadConfig;
use lodify_resilience::DetRng;

/// Pictures in the bootstrapped store (≈53 k triples with the LOD
/// snapshots). The store itself is fixed; `--seed` drives the
/// operation stream, so runs on different seeds measure the same data.
pub const PICTURES: usize = 3000;

pub fn store_config() -> WorkloadConfig {
    WorkloadConfig {
        pictures: PICTURES,
        ..WorkloadConfig::default()
    }
}

/// Sights that carry `rdfs:label`s in the LOD snapshot (commercial
/// places live only in LinkedGeoData).
fn sights() -> Vec<&'static Poi> {
    Gazetteer::global()
        .pois()
        .iter()
        .filter(|p| !p.category.is_commercial())
        .collect()
}

/// One `/album` request shape: gazetteer sight × label language ×
/// radius.
#[derive(Debug, Clone)]
pub struct AlbumKey {
    pub monument: &'static str,
    pub lang: &'static str,
    pub radius_km: f64,
}

impl AlbumKey {
    pub fn spec(&self) -> AlbumSpec {
        AlbumSpec::near_monument(self.monument, self.lang, self.radius_km)
    }

    pub fn target(&self) -> String {
        format!(
            "/album?monument={}&lang={}&radius={}",
            web::url_encode(self.monument),
            self.lang,
            self.radius_km
        )
    }
}

/// The album-spec set, in popularity (Zipf rank) order: every sight
/// twice, with its Italian label at the paper's 0.3 km and its English
/// label at 1 km. The order is fixed so that seeds change which albums
/// are asked for, not which albums are popular.
pub fn album_keys() -> Vec<AlbumKey> {
    sights()
        .into_iter()
        .flat_map(|poi| {
            [("it", 0.3), ("en", 1.0)].map(|(lang, radius_km)| AlbumKey {
                monument: poi.name,
                lang,
                radius_km,
            })
        })
        .collect()
}

/// Zipf(s = 1) rank sampler over `n` items.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / k as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut DetRng) -> usize {
        let u = rng.random_f64();
        self.cdf.partition_point(|c| *c < u).min(self.cdf.len() - 1)
    }
}

/// A read request through the web layer.
#[derive(Debug, Clone)]
pub enum Read {
    Album(usize),
    About(i64),
    Search(String),
    Picture(i64),
    Resource(String),
}

impl Read {
    pub fn kind(&self) -> &'static str {
        match self {
            Read::Album(_) => "album",
            Read::About(_) => "about",
            Read::Search(_) => "search",
            Read::Picture(_) => "picture",
            Read::Resource(_) => "resource",
        }
    }

    pub fn target(&self, keys: &[AlbumKey]) -> String {
        match self {
            Read::Album(i) => keys[*i].target(),
            Read::About(pid) => format!("/about/{pid}"),
            Read::Search(q) => format!("/search?q={}", web::url_encode(q)),
            Read::Picture(pid) => format!("/picture/{pid}"),
            Read::Resource(iri) => format!("/resource?iri={}", web::url_encode(iri)),
        }
    }

    /// The parsed request `handle_request` receives for this read.
    pub fn request(&self, keys: &[AlbumKey]) -> Request {
        let line = format!("GET {} HTTP/1.1", self.target(keys));
        Request::parse(&line, &mobile_headers()).expect("generated request line is well formed")
    }
}

fn mobile_headers() -> Vec<(String, String)> {
    vec![(
        "User-Agent".to_string(),
        "Mozilla/5.0 (iPhone) Mobile".to_string(),
    )]
}

/// A fixed pool of items dealt in a seeded order, each once per pass.
/// About mashups and resource lists cost from well under a millisecond
/// to tens of milliseconds depending on the item; dealing from a small
/// pool gives every run the same items, so a run's cost does not hinge
/// on which few expensive ones it happened to draw.
struct Deck<T> {
    items: Vec<T>,
    next: usize,
}

impl<T: Clone> Deck<T> {
    /// `size` items spread evenly over `all`.
    fn spread(all: &[T], size: usize) -> Deck<T> {
        let items = (0..size)
            .map(|i| all[i * all.len() / size].clone())
            .collect();
        Deck { items, next: 0 }
    }

    fn deal(&mut self, rng: &mut DetRng) -> T {
        if self.next == 0 {
            for i in (1..self.items.len()).rev() {
                self.items.swap(i, rng.random_range(0..=i));
            }
        }
        let item = self.items[self.next].clone();
        self.next = (self.next + 1) % self.items.len();
        item
    }
}

/// Seeded read-request stream. Weights are percentages per kind.
pub struct ReadGen {
    rng: DetRng,
    zipf: Zipf,
    words: Vec<String>,
    abouts: Deck<i64>,
    resources: Deck<String>,
    weights: [u32; 5],
}

impl ReadGen {
    /// `weights`: album, about, search, picture, resource.
    pub fn new(rng: DetRng, albums: usize, weights: [u32; 5]) -> ReadGen {
        let gaz = Gazetteer::global();
        let mut words: Vec<String> = gaz
            .cities()
            .iter()
            .flat_map(|c| c.labels.iter().map(|(_, l)| *l))
            .chain(gaz.pois().iter().map(|p| p.name))
            .chain(gaz.people().iter().map(|p| p.name))
            .flat_map(|label| label.split_whitespace())
            .map(str::to_lowercase)
            .filter(|w| w.chars().count() >= 2)
            .collect();
        words.sort();
        words.dedup();
        let resources: Vec<String> = sights()
            .iter()
            .map(|p| p.key)
            .chain(gaz.cities().iter().map(|c| c.key))
            .map(|key| lodify_lod::datasets::dbp(key).as_str().to_string())
            .collect();
        let pids: Vec<i64> = (1..=PICTURES as i64).collect();
        ReadGen {
            rng,
            zipf: Zipf::new(albums),
            words,
            abouts: Deck::spread(&pids, 16),
            resources: Deck::spread(&resources, 8),
            weights,
        }
    }

    pub fn next(&mut self) -> Read {
        let total: u32 = self.weights.iter().sum();
        let mut roll = self.rng.random_range(0..total);
        let mut kind = 0;
        while roll >= self.weights[kind] {
            roll -= self.weights[kind];
            kind += 1;
        }
        match kind {
            0 => Read::Album(self.zipf.sample(&mut self.rng)),
            1 => Read::About(self.abouts.deal(&mut self.rng)),
            2 => {
                let word = &self.words[self.rng.random_range(0..self.words.len())];
                let chars: Vec<char> = word.chars().collect();
                let len = self.rng.random_range(2..=chars.len().min(4));
                Read::Search(chars[..len].iter().collect())
            }
            3 => Read::Picture(self.rng.random_range(1..=PICTURES as i64)),
            _ => Read::Resource(self.resources.deal(&mut self.rng)),
        }
    }
}

const GENERIC_TAGS: &[&str] = &[
    "travel", "holiday", "art", "food", "friends", "night", "summer", "vacanze", "museum",
];

/// Seeded upload stream: multilingual titles over gazetteer sights,
/// people and cities, so terms repeat as real tags do, plus one tag
/// unique to each upload. Most uploads carry GPS; some attach a POI.
pub struct UploadGen {
    rng: DetRng,
    sights: Vec<&'static Poi>,
    users: i64,
    n: u64,
}

impl UploadGen {
    pub fn new(rng: DetRng) -> UploadGen {
        UploadGen {
            rng,
            sights: sights(),
            users: store_config().users as i64,
            n: 0,
        }
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.rng.random_range(0..items.len())]
    }

    fn jitter(&mut self, p: Point, km: f64) -> Point {
        let dx = (self.rng.random_f64() - 0.5) * 2.0 * km;
        let dy = (self.rng.random_f64() - 0.5) * 2.0 * km;
        p.offset_km(dx, dy)
    }

    pub fn next(&mut self) -> Upload {
        let gaz = Gazetteer::global();
        self.n += 1;
        let lang = *self.pick(&["it", "it", "en", "en", "fr", "es", "de"]);
        let person = self.pick(gaz.people()).name;
        let roll = self.rng.random_f64();
        let (title, city_key, anchor, near, poi) = if roll < 0.6 {
            let sight = self.sights[self.rng.random_range(0..self.sights.len())];
            let name = match sight.alt_names {
                [alt, ..] if self.rng.random_bool(0.2) => alt,
                _ => sight.name,
            };
            let city = gaz
                .city(sight.city_key)
                .expect("catalog city keys are consistent");
            let title = match (lang, self.rng.random_range(0..3)) {
                ("it", 0) => format!("{name} con {person}"),
                ("it", _) => format!("Tramonto su {name}, {}", city.label("it")),
                ("en", 0) => format!("Met {person} near {name}"),
                ("en", _) => format!("{name} at sunset"),
                ("fr", _) => format!("Visite de {name}"),
                ("es", _) => format!("Visita a {name}"),
                _ => format!("Besuch am {name}"),
            };
            (title, sight.city_key, sight.point(gaz), 0.15, Some(sight))
        } else {
            let city = self.pick(gaz.cities());
            let label = city.label(lang);
            let title = match lang {
                "it" => format!("Una giornata a {label} con {person}"),
                "en" => format!("Day trip to {label}"),
                "fr" => format!("Balade à {label}"),
                "es" => format!("Paseo por {label}"),
                _ => format!("Ausflug nach {label}"),
            };
            (title, city.key, city.point(), 2.0, None)
        };
        let mut tags = vec![city_key.to_lowercase(), format!("u{}", self.n)];
        if self.rng.random_bool(0.5) {
            tags.push(self.pick(GENERIC_TAGS).to_string());
        }
        let gps = self
            .rng
            .random_bool(0.85)
            .then(|| self.jitter(anchor, near));
        let poi = match poi {
            Some(sight) if self.rng.random_bool(0.3) => Some((
                sight.name.to_string(),
                sight.category.label().to_string(),
                sight.point(gaz),
            )),
            _ => None,
        };
        Upload {
            user_id: self.rng.random_range(1..=self.users),
            title,
            tags,
            ts: 1_330_000_000 + self.n as i64 * 60,
            gps,
            poi,
        }
    }
}
