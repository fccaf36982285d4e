//! Second-domain integration: a library/loans database exercising the
//! features the Vehicle suite does not — set-valued reference attributes,
//! nested paths through them, aggregates with HAVING, DISTINCT, DELETE,
//! a string-keyed index, methods with parameters, and multiple inheritance.

use mood_core::{Answer, Mood, Value};

fn build() -> Mood {
    let db = Mood::in_memory();
    for ddl in [
        "CREATE CLASS Person TUPLE (name String(64), birth Integer)",
        "CREATE CLASS Author INHERITS FROM Person",
        "CREATE CLASS Publisher TUPLE (name String(64), city String(32))",
        "CREATE CLASS Book TUPLE (title String(128), year Integer, pages Integer, \
         author REFERENCE (Author), publisher REFERENCE (Publisher), \
         tags SET (String)) \
         METHODS: age (now Integer) Integer,",
        "CREATE CLASS Member INHERITS FROM Person TUPLE (card Integer)",
        "CREATE CLASS Loan TUPLE (book REFERENCE (Book), member REFERENCE (Member), \
         day Integer)",
    ] {
        db.execute(ddl).unwrap();
    }
    db.execute("DEFINE METHOD Book::age(now Integer) RETURNS Integer AS 'now - year'")
        .unwrap();

    let catalog = db.catalog();
    let mut authors = Vec::new();
    for (n, b) in [
        ("Orhan Pamuk", 1952),
        ("Yasar Kemal", 1923),
        ("Elif Safak", 1971),
    ] {
        authors.push(
            catalog
                .new_object(
                    "Author",
                    Value::tuple(vec![
                        ("name", Value::string(n)),
                        ("birth", Value::Integer(b)),
                    ]),
                )
                .unwrap(),
        );
    }
    let mut publishers = Vec::new();
    for (n, c) in [("Iletisim", "Istanbul"), ("YKY", "Istanbul")] {
        publishers.push(
            catalog
                .new_object(
                    "Publisher",
                    Value::tuple(vec![("name", Value::string(n)), ("city", Value::string(c))]),
                )
                .unwrap(),
        );
    }
    let mut books = Vec::new();
    for i in 0..30i32 {
        books.push(
            catalog
                .new_object(
                    "Book",
                    Value::tuple(vec![
                        ("title", Value::string(format!("Book {i:02}"))),
                        ("year", Value::Integer(1970 + (i % 10) * 5)),
                        ("pages", Value::Integer(120 + i * 17)),
                        ("author", Value::Ref(authors[i as usize % 3])),
                        ("publisher", Value::Ref(publishers[i as usize % 2])),
                        (
                            "tags",
                            Value::Set(vec![
                                Value::string(if i % 2 == 0 { "novel" } else { "essay" }),
                                Value::string("turkish"),
                            ]),
                        ),
                    ]),
                )
                .unwrap(),
        );
    }
    let mut members = Vec::new();
    for i in 0..6i32 {
        members.push(
            catalog
                .new_object(
                    "Member",
                    Value::tuple(vec![
                        ("name", Value::string(format!("member{i}"))),
                        ("birth", Value::Integer(1980 + i)),
                        ("card", Value::Integer(1000 + i)),
                    ]),
                )
                .unwrap(),
        );
    }
    for i in 0..40i32 {
        catalog
            .new_object(
                "Loan",
                Value::tuple(vec![
                    ("book", Value::Ref(books[(i as usize * 7) % books.len()])),
                    ("member", Value::Ref(members[i as usize % members.len()])),
                    ("day", Value::Integer(i)),
                ]),
            )
            .unwrap();
    }
    db.collect_stats().unwrap();
    db
}

fn rows(a: Answer) -> Vec<Vec<Value>> {
    let Answer::Rows(r) = a else {
        panic!("not rows")
    };
    r.rows
}

#[test]
fn three_hop_path_through_two_classes() {
    let db = build();
    // loan → book → author → birth.
    let r = rows(
        db.execute("SELECT l.day FROM Loan l WHERE l.book.author.birth < 1950 ORDER BY l.day")
            .unwrap(),
    );
    assert!(!r.is_empty());
    // Cross-check with a brute-force two-query approach.
    let authors_pre_1950 = rows(
        db.execute("SELECT a.name FROM Author a WHERE a.birth < 1950")
            .unwrap(),
    );
    assert_eq!(authors_pre_1950.len(), 1, "only Yasar Kemal");
}

#[test]
fn aggregates_with_having_and_order() {
    let db = build();
    let r = rows(
        db.execute(
            "SELECT l.member.name, COUNT(*) FROM Loan l \
             GROUP BY l.member.name HAVING COUNT(*) >= 6 ORDER BY l.member.name",
        )
        .unwrap(),
    );
    // 40 loans over 6 members: members 0..3 get 7, members 4..5 get 6.
    assert_eq!(r.len(), 6);
    let total: i32 = r
        .iter()
        .map(|row| match row[1] {
            Value::Integer(c) => c,
            _ => panic!(),
        })
        .sum();
    assert_eq!(total, 40);
}

#[test]
fn min_max_avg_sum() {
    let db = build();
    let r = rows(
        db.execute("SELECT MIN(b.pages), MAX(b.pages), AVG(b.pages), SUM(b.pages) FROM Book b")
            .unwrap(),
    );
    let (min, max) = (120.0, 120.0 + 29.0 * 17.0);
    assert_eq!(r[0][0], Value::Float(min));
    assert_eq!(r[0][1], Value::Float(max));
    let Value::Float(avg) = r[0][2] else { panic!() };
    assert!((avg - (min + max) / 2.0).abs() < 1e-9, "arithmetic series");
    let Value::Float(sum) = r[0][3] else { panic!() };
    assert!((sum - 30.0 * (min + max) / 2.0).abs() < 1e-9);
}

#[test]
fn distinct_over_path() {
    let db = build();
    let r = rows(
        db.execute("SELECT DISTINCT b.publisher.city FROM Book b")
            .unwrap(),
    );
    assert_eq!(r.len(), 1, "both publishers in Istanbul");
}

#[test]
fn method_with_parameter_in_predicate() {
    let db = build();
    let r = rows(
        db.execute("SELECT b.title FROM Book b WHERE b.age(2026) > 50 ORDER BY b.title")
            .unwrap(),
    );
    // age > 50 ⇔ year < 1976 ⇔ year ∈ {1970, 1975} → i%10 ∈ {0,1} → 6 books.
    assert_eq!(r.len(), 6);
}

#[test]
fn hash_index_equality() {
    let db = build();
    db.execute("CREATE INDEX ON Book(title)").unwrap();
    db.collect_stats().unwrap();
    // A B+-tree gets Table 9 statistics, so the optimizer can pick it.
    assert!(db.catalog().stats().index("Book", "title").is_some());
    let r = rows(
        db.execute("SELECT b.pages FROM Book b WHERE b.title = 'Book 07'")
            .unwrap(),
    );
    assert_eq!(r, vec![vec![Value::Integer(120 + 7 * 17)]]);
}

#[test]
fn delete_where_through_path() {
    let db = build();
    let before = rows(db.execute("SELECT l FROM Loan l").unwrap()).len();
    let Answer::Done { affected } = db.execute("DELETE FROM Loan l WHERE l.day < 10").unwrap()
    else {
        panic!()
    };
    assert_eq!(affected, 10);
    let after = rows(db.execute("SELECT l FROM Loan l").unwrap()).len();
    assert_eq!(after, before - 10);
    // Dangling-free: remaining loans still resolve their books.
    let r = rows(
        db.execute("SELECT l.book.title FROM Loan l WHERE l.day = 15")
            .unwrap(),
    );
    assert_eq!(r.len(), 1);
}

#[test]
fn multiple_inheritance_extent_union() {
    let db = build();
    // EVERY Person = Person(0) + Author(3) + Member(6).
    let all = rows(db.execute("SELECT p FROM EVERY Person p").unwrap());
    assert_eq!(all.len(), 9);
    let authors_only = rows(db.execute("SELECT p FROM EVERY Person - Member p").unwrap());
    assert_eq!(authors_only.len(), 3);
}

#[test]
fn between_and_arithmetic_in_predicates() {
    let db = build();
    let r = rows(
        db.execute(
            "SELECT b.title FROM Book b WHERE b.pages BETWEEN 200 AND 300 \
             AND b.pages % 2 = 1",
        )
        .unwrap(),
    );
    // pages = 120 + 17i ∈ [200,300] → i ∈ {5..10}; odd pages → i odd
    // (120+17i odd ⇔ i odd) → i ∈ {5,7,9}.
    assert_eq!(r.len(), 3);
}

#[test]
fn object_browser_renders_loans() {
    let db = build();
    let loans = db.catalog().extent("Loan").unwrap();
    let (oid, _) = loans[0];
    let text = db.render_object(oid, 2);
    assert!(text.contains("Loan @"), "{text}");
    assert!(text.contains("Book @"), "follows book ref: {text}");
    assert!(text.contains("title:"), "{text}");
}

#[test]
fn explain_groups_and_sorts_in_figure_7_1_order() {
    let db = build();
    db.execute(
        "SELECT l.member.name, COUNT(*) FROM Loan l WHERE l.day >= 0 \
         GROUP BY l.member.name HAVING COUNT(*) > 0 ORDER BY l.member.name",
    )
    .unwrap();
    let trace = db.last_trace();
    let pos = |n: &str| trace.iter().position(|t| t == n).unwrap_or(usize::MAX);
    assert!(pos("FROM") < pos("GROUP BY"));
    assert!(pos("GROUP BY") < pos("HAVING"));
    assert!(pos("HAVING") < pos("PROJECT"));
}

#[test]
fn soak_scale_pipeline_matches_bruteforce() {
    // A larger end-to-end run: ~6k objects, path query + aggregate query,
    // checked against brute-force counts computed from the raw extents.
    let db = Mood::in_memory_with_pool(64);
    db.execute("CREATE CLASS Genre TUPLE (name String)")
        .unwrap();
    db.execute("CREATE CLASS Title TUPLE (n Integer, genre REFERENCE (Genre))")
        .unwrap();
    db.execute("CREATE CLASS Copy TUPLE (serial Integer, title REFERENCE (Title))")
        .unwrap();
    let catalog = db.catalog();
    let genres: Vec<_> = (0..8)
        .map(|g| {
            catalog
                .new_object(
                    "Genre",
                    Value::tuple(vec![("name", Value::string(format!("g{g}")))]),
                )
                .unwrap()
        })
        .collect();
    let titles: Vec<_> = (0..1000)
        .map(|t: i32| {
            catalog
                .new_object(
                    "Title",
                    Value::tuple(vec![
                        ("n", Value::Integer(t)),
                        (
                            "genre",
                            Value::Ref(genres[(t as usize * 13) % genres.len()]),
                        ),
                    ]),
                )
                .unwrap()
        })
        .collect();
    for c in 0..5000i32 {
        catalog
            .new_object(
                "Copy",
                Value::tuple(vec![
                    ("serial", Value::Integer(c)),
                    ("title", Value::Ref(titles[(c as usize * 7) % titles.len()])),
                ]),
            )
            .unwrap();
    }
    db.collect_stats().unwrap();

    // Path query: copies of titles in genre g3.
    let cur = db
        .query("SELECT c FROM Copy c WHERE c.title.genre.name = 'g3'")
        .unwrap();
    // Brute force.
    let mut expect = 0;
    for (_, copy) in catalog.extent("Copy").unwrap() {
        let Some(Value::Ref(t)) = copy.field("title") else {
            continue;
        };
        let (_, title) = catalog.get_object(*t).unwrap();
        let Some(Value::Ref(g)) = title.field("genre") else {
            continue;
        };
        let (_, genre) = catalog.get_object(*g).unwrap();
        if genre.field("name") == Some(&Value::string("g3")) {
            expect += 1;
        }
    }
    assert_eq!(cur.len(), expect);
    assert!(expect > 0);

    // Aggregate across the same path.
    let Answer::Rows(r) = db
        .execute(
            "SELECT c.title.genre.name, COUNT(*) FROM Copy c \
             GROUP BY c.title.genre.name ORDER BY c.title.genre.name",
        )
        .unwrap()
    else {
        panic!()
    };
    assert_eq!(r.len(), 8);
    let total: i32 = r
        .rows
        .iter()
        .map(|row| match row[1] {
            Value::Integer(c) => c,
            _ => panic!(),
        })
        .sum();
    assert_eq!(total, 5000);
}
