//! Seeded damage to line-oriented text.
//!
//! The system's stored formats (run records, model deltas, testcases)
//! are lines of space-separated tokens. When a parser of one is
//! rewritten for speed, the old one stays as a `#[cfg(test)]` reference
//! and the two are held equal — `Ok` values and `Err` strings — on text
//! damaged the ways the wire-fuzz suite damages frames: cut short, a
//! bit flipped, lines lost, doubled or foreign, `\r\n` endings, and
//! Unicode space where the fast paths expect plain ASCII.

use uucs_stats::Pcg64;

/// Characters a trim or a token split may or may not treat as space:
/// ASCII blanks (vertical tab and form feed are whitespace to `char`
/// but not to `split_ascii_whitespace`), Unicode spaces, and two
/// look-alikes that are *not* whitespace (U+FEFF, U+200B).
const SPACES: [char; 11] = [
    ' ', '\t', '\r', '\u{b}', '\u{c}', '\u{85}', '\u{a0}', '\u{2003}', '\u{3000}', '\u{feff}',
    '\u{200b}',
];

/// Applies one mutation, drawn from `rng`, to `text`; `stray` is the
/// catalogue of foreign lines an insertion picks from. The result is
/// always valid UTF-8 (a flipped bit that breaks an encoding becomes
/// U+FFFD).
pub fn mutate_lines(rng: &mut Pcg64, text: &str, stray: &[&str]) -> String {
    let pick = |rng: &mut Pcg64, n: usize| rng.below(n.max(1) as u64) as usize;
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let at = pick(rng, lines.len());
    match rng.below(8) {
        0 => {
            let mut cut = pick(rng, text.len() + 1);
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            return text[..cut].to_string();
        }
        1 => {
            let mut bytes = text.as_bytes().to_vec();
            if !bytes.is_empty() {
                let i = pick(rng, bytes.len());
                bytes[i] ^= 1 << rng.below(8);
            }
            return String::from_utf8_lossy(&bytes).into_owned();
        }
        2 => return text.replace('\n', "\r\n"),
        3 if !lines.is_empty() => {
            let copy = lines[at].clone();
            lines.insert(at, copy);
        }
        4 if !lines.is_empty() => {
            lines.remove(at);
        }
        5 if !lines.is_empty() => {
            let space = *rng.choose(&SPACES);
            if rng.bernoulli(0.5) {
                lines[at].insert(0, space);
            } else {
                lines[at].push(space);
            }
        }
        6 if !lines.is_empty() => {
            // A blank *inside* a line becomes some other kind of space.
            let blanks: Vec<usize> = lines[at].match_indices(' ').map(|(i, _)| i).collect();
            if !blanks.is_empty() {
                let i = *rng.choose(&blanks);
                let space = rng.choose(&SPACES).to_string();
                lines[at].replace_range(i..i + 1, &space);
            }
        }
        _ => {
            let line = if stray.is_empty() { "" } else { *rng.choose(stray) };
            lines.insert(pick(rng, lines.len() + 1), line.to_string());
        }
    }
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutations_are_seeded_and_cover_every_kind() {
        let text = "RESULT\nCLIENT a b\nEND\n";
        let run = |seed| {
            let mut rng = Pcg64::new(seed);
            mutate_lines(&mut rng, text, &["STRAY line"])
        };
        let outputs: std::collections::BTreeSet<String> = (0..200).map(run).collect();
        assert_eq!(run(7), run(7), "same seed, same damage");
        assert!(outputs.contains("RESULT\r\nCLIENT a b\r\nEND\r\n"));
        assert!(outputs.iter().any(|o| o.contains("STRAY line")));
        assert!(outputs.iter().any(|o| o.len() < text.len() && text.starts_with(o.as_str())));
        assert!(outputs.iter().any(|o| o.contains('\u{a0}')));
        assert!(outputs.iter().any(|o| o.lines().count() == 2));
        assert!(outputs.iter().any(|o| o.lines().count() == 4));
    }
}
