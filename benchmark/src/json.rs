//! A JSON value small enough to write by hand; read back in tests with
//! `gsj_obs::parse_json`.

/// A JSON value. Objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum J {
    Num(f64),
    Str(String),
    Bool(bool),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn str(s: impl Into<String>) -> J {
        J::Str(s.into())
    }

    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, J)>) -> J {
        J::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn render(&self) -> String {
        match self {
            // Rust prints the shortest decimal that reads back as the
            // same f64, i.e. every digit that was measured.
            J::Num(x) if x.is_finite() => format!("{x}"),
            J::Num(_) => "null".into(),
            J::Str(s) => format!("\"{}\"", gsj_obs::escape_json(s)),
            J::Bool(b) => b.to_string(),
            J::Arr(items) => {
                let inner: Vec<String> = items.iter().map(J::render).collect();
                format!("[{}]", inner.join(","))
            }
            J::Obj(pairs) => {
                let inner: Vec<String> = pairs
                    .iter()
                    .map(|(k, v)| format!("\"{}\":{}", gsj_obs::escape_json(k), v.render()))
                    .collect();
                format!("{{{}}}", inner.join(","))
            }
        }
    }
}

impl From<f64> for J {
    fn from(x: f64) -> J {
        J::Num(x)
    }
}

impl From<usize> for J {
    fn from(x: usize) -> J {
        J::Num(x as f64)
    }
}

impl From<u64> for J {
    fn from(x: u64) -> J {
        J::Num(x as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_reads_back() {
        let doc = J::obj([
            ("correct", J::Bool(true)),
            ("attempted", 1000usize.into()),
            ("name", J::str("a \"quoted\"\nline")),
            ("values", J::Arr(vec![1.2034.into(), J::Num(f64::NAN)])),
        ]);
        let text = doc.render();
        assert!(!text.contains('\n'), "one line: {text}");
        let back = gsj_obs::parse_json(&text).unwrap();
        assert_eq!(back.get("attempted").unwrap().as_f64(), Some(1000.0));
        assert_eq!(
            back.get("name").unwrap().as_str(),
            Some("a \"quoted\"\nline")
        );
        let vals = back.get("values").unwrap().as_arr().unwrap();
        assert_eq!(vals[0].as_f64(), Some(1.2034));
        assert_eq!(vals[1].as_f64(), None);
    }
}
