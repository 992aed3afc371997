//! Dataset I/O: the standard whitespace-separated triple format used by
//! KG benchmarks (`head<TAB>relation<TAB>tail`, one triple per line, ids
//! either symbolic or numeric), plus JSON round-tripping of full
//! multi-modal datasets.
//!
//! This is the adoption path for real data: drop WN18/FB15k-style
//! `train.txt`/`valid.txt`/`test.txt` files in a directory, call
//! [`load_split_dir`], and attach modality banks separately (or use
//! [`ModalBank::empty`](crate::ModalBank::empty) for structure-only work).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use crate::dataset::Split;
use crate::triple::Triple;

/// Bidirectional symbol ↔ dense-id mapping built while parsing.
#[derive(Debug, Default, Clone)]
pub struct Vocab {
    pub entities: Vec<String>,
    pub relations: Vec<String>,
    entity_ids: HashMap<String, u32>,
    relation_ids: HashMap<String, u32>,
}

impl Vocab {
    /// Rebuild a vocab from already-ordered name tables (the snapshot
    /// loader path: ids are the positions in the tables).
    pub fn from_tables(entities: Vec<String>, relations: Vec<String>) -> Self {
        let entity_ids = entities
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i as u32))
            .collect();
        let relation_ids = relations
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i as u32))
            .collect();
        Vocab {
            entities,
            relations,
            entity_ids,
            relation_ids,
        }
    }

    pub fn entity_id(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.entity_ids.get(name) {
            return id;
        }
        let id = self.entities.len() as u32;
        self.entities.push(name.to_string());
        self.entity_ids.insert(name.to_string(), id);
        id
    }

    pub fn relation_id(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.relation_ids.get(name) {
            return id;
        }
        let id = self.relations.len() as u32;
        self.relations.push(name.to_string());
        self.relation_ids.insert(name.to_string(), id);
        id
    }

    pub fn lookup_entity(&self, name: &str) -> Option<u32> {
        self.entity_ids.get(name).copied()
    }

    pub fn lookup_relation(&self, name: &str) -> Option<u32> {
        self.relation_ids.get(name).copied()
    }
}

/// Parse errors carry the line number for actionable messages.
#[derive(Debug)]
pub enum IoError {
    Io(std::io::Error),
    Malformed { line: usize, content: String },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Malformed { line, content } => {
                write!(f, "malformed triple at line {line}: {content:?}")
            }
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Read one triples file, interning symbols into `vocab`.
pub fn read_triples(path: &Path, vocab: &mut Vocab) -> Result<Vec<Triple>, IoError> {
    let file = std::fs::File::open(path)?;
    let mut reader = BufReader::new(file);
    let mut out = Vec::new();
    let mut line = String::new();
    let mut lineno = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let (Some(h), Some(r), Some(t)) = (parts.next(), parts.next(), parts.next()) else {
            return Err(IoError::Malformed {
                line: lineno,
                content: trimmed.to_string(),
            });
        };
        out.push(Triple::new(
            vocab.entity_id(h),
            vocab.relation_id(r),
            vocab.entity_id(t),
        ));
    }
    Ok(out)
}

/// Load a `train.txt`/`valid.txt`/`test.txt` directory (valid/test files
/// optional). Returns the split and the symbol vocabulary.
pub fn load_split_dir(dir: &Path) -> Result<(Split, Vocab), IoError> {
    let mut vocab = Vocab::default();
    let train = read_triples(&dir.join("train.txt"), &mut vocab)?;
    let valid = match std::fs::metadata(dir.join("valid.txt")) {
        Ok(_) => read_triples(&dir.join("valid.txt"), &mut vocab)?,
        Err(_) => Vec::new(),
    };
    let test = match std::fs::metadata(dir.join("test.txt")) {
        Ok(_) => read_triples(&dir.join("test.txt"), &mut vocab)?,
        Err(_) => Vec::new(),
    };
    Ok((Split { train, valid, test }, vocab))
}

/// Write triples with symbolic names (inverse of [`read_triples`]).
pub fn write_triples(path: &Path, triples: &[Triple], vocab: &Vocab) -> Result<(), IoError> {
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    for t in triples {
        writeln!(
            w,
            "{}\t{}\t{}",
            vocab.entities[t.s.index()],
            vocab.relations[t.r.index()],
            vocab.entities[t.o.index()]
        )?;
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh directory of the test's own: tests run in parallel and
    /// each removes its directory when done.
    fn tmpdir(test: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mmkgr_io_{}_{test}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn roundtrip_triples_file() {
        let dir = tmpdir("roundtrip_triples_file");
        let path = dir.join("train.txt");
        std::fs::write(
            &path,
            "titanic\tstarred_by\twinslet\njack\tplayed_by\tdicaprio\n",
        )
        .unwrap();
        let mut vocab = Vocab::default();
        let triples = read_triples(&path, &mut vocab).unwrap();
        assert_eq!(triples.len(), 2);
        assert_eq!(vocab.entities.len(), 4);
        assert_eq!(vocab.relations.len(), 2);
        assert_eq!(vocab.lookup_entity("titanic"), Some(0));

        let out = dir.join("echo.txt");
        write_triples(&out, &triples, &vocab).unwrap();
        let mut vocab2 = Vocab::default();
        let triples2 = read_triples(&out, &mut vocab2).unwrap();
        assert_eq!(triples, triples2);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let dir = tmpdir("comments_and_blank_lines_skipped");
        let path = dir.join("c.txt");
        std::fs::write(&path, "# header\n\na r b\n").unwrap();
        let mut vocab = Vocab::default();
        let triples = read_triples(&path, &mut vocab).unwrap();
        assert_eq!(triples.len(), 1);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn malformed_line_reports_position() {
        let dir = tmpdir("malformed_line_reports_position");
        let path = dir.join("bad.txt");
        std::fs::write(&path, "a r b\nonly_two fields\n").unwrap();
        let mut vocab = Vocab::default();
        let err = read_triples(&path, &mut vocab).unwrap_err();
        match err {
            IoError::Malformed { line, .. } => assert_eq!(line, 2),
            other => panic!("wrong error: {other}"),
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn split_dir_with_missing_valid_test() {
        let dir = tmpdir("split_dir_with_missing_valid_test");
        std::fs::write(dir.join("train.txt"), "a r b\nb r c\n").unwrap();
        let (split, vocab) = load_split_dir(&dir).unwrap();
        assert_eq!(split.train.len(), 2);
        assert!(split.valid.is_empty());
        assert!(split.test.is_empty());
        assert_eq!(vocab.entities.len(), 3);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn vocab_interning_is_stable() {
        let mut v = Vocab::default();
        let a = v.entity_id("x");
        let b = v.entity_id("y");
        let a2 = v.entity_id("x");
        assert_eq!(a, a2);
        assert_ne!(a, b);
    }
}
