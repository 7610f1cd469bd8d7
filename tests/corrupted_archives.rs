//! Robustness: corrupted archive bytes must fail loudly at parse time,
//! never silently skew an analysis.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
use droplens_core::{IngestError, Study, StudyConfig};
use droplens_synth::{TextArchives, World, WorldConfig};

fn base() -> (World, StudyConfig) {
    let world = World::generate(17, &WorldConfig::small());
    let config = StudyConfig::new(droplens_net::DateRange::inclusive(
        world.config.study_start,
        world.config.study_end,
    ));
    (world, config)
}

#[test]
fn clean_archives_parse() {
    let (world, config) = base();
    let text = world.to_text_archives();
    assert!(Study::from_text(config, world.peers.clone(), &text).is_ok());
}

#[test]
fn corrupted_bgp_line_is_rejected() {
    let (world, config) = base();
    let mut text = world.to_text_archives();
    text.bgp_updates
        .push_str("BGP4MP|2021-01-01|A|peer0|2000|not-a-prefix|1 2\n");
    let err = match Study::from_text(config, world.peers.clone(), &text) {
        Ok(_) => panic!("corrupted BGP line accepted"),
        Err(e) => e,
    };
    assert!(err.to_string().contains("Ipv4Prefix"), "{err}");
}

#[test]
fn truncated_roa_journal_is_rejected() {
    let (world, config) = base();
    let mut text = world.to_text_archives();
    // Chop the last line in half.
    let cut = text.roa_events.len() - 15;
    text.roa_events.truncate(cut);
    assert!(Study::from_text(config, world.peers.clone(), &text).is_err());
}

#[test]
fn out_of_order_irr_journal_is_rejected() {
    let (world, config) = base();
    let mut text = world.to_text_archives();
    // Append an entry dated before everything else.
    text.irr_journal
        .push_str("ADD 1999-01-01\n\nroute: 10.0.0.0/8\norigin: AS1\nsource: RADB\n");
    assert!(Study::from_text(config, world.peers.clone(), &text).is_err());
}

#[test]
fn garbage_stats_file_is_rejected() {
    let (world, config) = base();
    let mut text = world.to_text_archives();
    if let Some((_, files)) = text.rir_snapshots.first_mut() {
        files[0] = "total garbage\n".to_owned();
    }
    assert!(Study::from_text(config, world.peers.clone(), &text).is_err());
}

#[test]
fn corrupted_drop_snapshot_is_rejected() {
    let (world, config) = base();
    let mut text = world.to_text_archives();
    if let Some((_, body)) = text.drop_snapshots.last_mut() {
        body.push_str("999.1.2.3/8 ; SBL1\n");
    }
    assert!(Study::from_text(config, world.peers.clone(), &text).is_err());
}

#[test]
fn corrupted_sbl_block_is_rejected() {
    let (world, config) = base();
    let mut text = world.to_text_archives();
    text.sbl_records.push_str("\nNOT-AN-SBL-ID\nsome body\n");
    assert!(Study::from_text(config, world.peers.clone(), &text).is_err());
}

#[test]
fn corrupted_roa_body_is_rejected_with_location() {
    let (world, config) = base();
    let mut text = world.to_text_archives();
    // Mangle a record body mid-file: replace the prefix field of the
    // third event line with garbage, keeping the CSV shape intact.
    let lines: Vec<&str> = text.roa_events.lines().collect();
    let target = 3; // 1-based: header is line 1, so this is an event line
    let mut mangled: Vec<String> = lines.iter().map(|l| (*l).to_owned()).collect();
    let fields: Vec<&str> = lines[target - 1].split(',').collect();
    mangled[target - 1] = format!(
        "{},{},{},{},256.0.0.0/99,{}",
        fields[0], fields[1], fields[2], fields[3], fields[5]
    );
    text.roa_events = mangled.join("\n");
    text.roa_events.push('\n');
    let err = match Study::from_text(config, world.peers.clone(), &text) {
        Ok(_) => panic!("corrupted ROA body accepted"),
        Err(e) => e,
    };
    let msg = err.to_string();
    assert!(msg.contains(&format!("rpki/roas.csv:{target}")), "{msg}");
}

#[test]
fn truncated_drop_line_is_rejected_with_location() {
    let (world, config) = base();
    let mut text = world.to_text_archives();
    let (date, body) = text.drop_snapshots.last_mut().expect("snapshots exist");
    // Cut the first entry line off mid-prefix, the way a partial
    // download truncates: "198.51.0.0/16 ; SBL123" -> "198.51.".
    let lineno = 1 + body
        .lines()
        .position(|l| !l.trim().is_empty() && !l.starts_with([';', '#']))
        .expect("snapshot has an entry");
    let mangled: String = body
        .lines()
        .enumerate()
        .map(|(i, l)| {
            if i + 1 == lineno {
                let cut = l.find('.').map_or(l.len() / 2, |d| d + 1);
                format!("{}\n", &l[..cut])
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    let expect_loc = format!("drop/{date}.txt:{lineno}");
    *body = mangled;
    let err = match Study::from_text(config, world.peers.clone(), &text) {
        Ok(_) => panic!("truncated DROP line accepted"),
        Err(e) => e,
    };
    let msg = err.to_string();
    assert!(msg.contains(&expect_loc), "{msg}");
}

#[test]
fn duplicate_drop_prefix_lines_are_idempotent() {
    // FireHOL mirrors occasionally serve a snapshot with a repeated
    // entry; a re-listing of the same prefix/SBL pair is not damage
    // and must not double-count or split episodes.
    let (world, config) = base();
    let clean = {
        let text = world.to_text_archives();
        Study::from_text(config.clone(), world.peers.clone(), &text).expect("clean parse")
    };
    let mut text = world.to_text_archives();
    for (_, body) in &mut text.drop_snapshots {
        let first_entry = body
            .lines()
            .find(|l| !l.trim().is_empty() && !l.starts_with([';', '#']))
            .map(|l| l.to_owned());
        if let Some(line) = first_entry {
            body.push_str(&line);
            body.push('\n');
        }
    }
    let study = Study::from_text(config, world.peers.clone(), &text).expect("duplicates tolerated");
    assert_eq!(study.entries.len(), clean.entries.len());
    assert_eq!(study.drop.entries(), clean.drop.entries());
}

#[test]
fn comments_and_blank_lines_are_tolerated_everywhere() {
    // The flip side: benign archive noise must NOT be rejected.
    let (world, config) = base();
    let mut text = world.to_text_archives();
    text.bgp_updates.insert_str(0, "# collector restarted\n\n");
    text.roa_events.push_str("# end of journal\n");
    text.irr_journal.insert_str(0, "% RADb mirror\n");
    let study = Study::from_text(config, world.peers.clone(), &text).expect("noise tolerated");
    assert_eq!(study.entries.len(), world.truth.listed.len());
}

// A label case damages one dataset: it appends or swaps in a malformed
// record.
type Damage = fn(&mut TextArchives);

#[test]
fn strict_errors_name_the_on_disk_path() {
    let (world, config) = base();
    let text = world.to_text_archives();
    let rir_date = text.rir_snapshots[0].0;
    let drop_date = text.drop_snapshots.last().expect("snapshots exist").0;
    // `rir_snapshots[_][1]` is APNIC's file (`Rir::ALL` order).
    let rir = format!("rir/{}/delegated-apnic-extended.txt", rir_date.compact());
    let drop = format!("drop/{drop_date}.txt");

    let cases: [(String, Damage); 6] = [
        ("bgp/updates.txt".into(), |t| {
            t.bgp_updates
                .push_str("BGP4MP|2021-01-01|A|peer0|2000|not-a-prefix|1 2\n")
        }),
        ("irr/journal.txt".into(), |t| {
            t.irr_journal
                .push_str("ADD 1999-01-01\n\nroute: 10.0.0.0/8\norigin: AS1\nsource: RADB\n")
        }),
        ("rpki/roas.csv".into(), |t| {
            t.roa_events.push_str("not,a,roa\n")
        }),
        (rir, |t| {
            t.rir_snapshots[0].1[1] = "total garbage\n".to_owned()
        }),
        (drop, |t| {
            let (_, body) = t.drop_snapshots.last_mut().expect("snapshots exist");
            body.push_str("999.1.2.3/8 ; SBL1\n");
        }),
        ("sbl/records.txt".into(), |t| {
            t.sbl_records.push_str("\nNOT-AN-SBL-ID\nsome body\n")
        }),
    ];
    let located = |path: &str, loaded: Result<Study, IngestError>| match loaded {
        Err(IngestError::Parse(e)) => assert_eq!(e.location().0, path, "wrong label: {e}"),
        Err(e) => panic!("{path}: expected a located parse error, got {e}"),
        Ok(_) => panic!("{path}: damaged payload accepted"),
    };
    for (path, damage) in &cases {
        let mut damaged = text.clone();
        damage(&mut damaged);
        located(
            path,
            Study::from_text(config.clone(), world.peers.clone(), &damaged),
        );
    }
}
