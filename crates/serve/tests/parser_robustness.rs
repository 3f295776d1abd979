//! Property tests: the HTTP parser faces the open network, so no byte
//! sequence — malformed request lines, truncated heads, absurd
//! `Content-Length`s, binary garbage — may ever panic it. Errors must
//! come back as typed [`RequestError`]s with sensible statuses.

use proptest::prelude::*;
use webssari_serve::{try_parse, Limits, Request, RequestError};

/// Parses one request under the default limits; incomplete input is
/// `Ok(None)`, exactly as the event loop sees it.
fn parse(bytes: &[u8]) -> Result<Option<Request>, RequestError> {
    try_parse(bytes, &Limits::default()).map(|parsed| parsed.map(|(req, _)| req))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        if let Err(e) = parse(&bytes) {
            let status = e.status();
            prop_assert!(
                matches!(status, 400 | 411 | 413 | 431 | 501),
                "unexpected status {status} for {bytes:?}",
            );
        }
    }

    #[test]
    fn arbitrary_text_never_panics(text in ".{0,300}") {
        let _ = parse(text.as_bytes());
    }

    #[test]
    fn mangled_request_lines_never_panic(
        method in "[A-Za-z ]{0,10}",
        target in ".{0,40}",
        version in "[HTP/0-9.]{0,10}",
        tail in ".{0,60}",
    ) {
        let raw = format!("{method} {target} {version}\r\n{tail}\r\n\r\n");
        let _ = parse(raw.as_bytes());
    }

    #[test]
    fn truncated_heads_report_truncation(cut in 0usize..40) {
        let full = b"POST /verify HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let cut = cut.min(full.len() - 1);
        // Cutting anywhere before the final byte loses the head or the
        // body; either way the parser asks for more bytes instead of
        // accepting, failing, or panicking.
        let result = parse(&full[..cut]);
        prop_assert!(matches!(result, Ok(None)), "{cut}-byte prefix gave {result:?}");
    }

    #[test]
    fn absurd_content_lengths_are_rejected(digits in "[0-9]{18,30}") {
        let raw = format!("POST /verify HTTP/1.1\r\nContent-Length: {digits}\r\n\r\n");
        match parse(raw.as_bytes()) {
            Err(RequestError::BodyTooLarge(_)) | Err(RequestError::BadContentLength) => {}
            Ok(None) => {
                // A parseable length within the limit: the body is then
                // (correctly) found missing.
            }
            other => prop_assert!(false, "expected size rejection, got {other:?}"),
        }
    }

    #[test]
    fn valid_requests_round_trip(
        path in "/[a-z]{0,12}",
        body in "[ -~]{0,100}",
    ) {
        let raw = format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len(),
        );
        let req = parse(raw.as_bytes())
            .expect("well-formed request parses")
            .expect("complete request");
        prop_assert_eq!(req.method.as_str(), "POST");
        prop_assert_eq!(req.path.as_str(), path.as_str());
        prop_assert_eq!(req.body.as_slice(), body.as_bytes());
    }

    /// The incremental parser must be insensitive to how the network
    /// fragments the byte stream: feeding any split of two pipelined
    /// requests chunk by chunk yields exactly the same two requests,
    /// with every incomplete prefix answered `None` (never an error).
    #[test]
    fn fragmentation_never_changes_the_parse(
        body in "[ -~]{0,80}",
        path in "/[a-z]{1,10}",
        cuts in prop::collection::vec(1usize..40, 0..8),
    ) {
        let raw = format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}\
             GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
            body.len(),
        );
        let raw = raw.as_bytes();
        let limits = Limits::default();

        // Reference parse over the whole buffer.
        let (first_ref, consumed_ref) = try_parse(raw, &limits)
            .expect("well-formed")
            .expect("complete");
        let (second_ref, rest_ref) = try_parse(&raw[consumed_ref..], &limits)
            .expect("well-formed")
            .expect("complete");
        prop_assert_eq!(consumed_ref + rest_ref, raw.len());

        // Incremental parse: deliver the stream in arbitrary chunks,
        // re-invoking try_parse after every delivery like the event
        // loop does.
        let mut boundaries: Vec<usize> = cuts
            .iter()
            .scan(0usize, |pos, step| {
                *pos += step;
                Some(*pos)
            })
            .take_while(|b| *b < raw.len())
            .collect();
        boundaries.push(raw.len());

        let mut buf: Vec<u8> = Vec::new();
        let mut fed = 0usize;
        let mut parsed = Vec::new();
        for boundary in boundaries {
            buf.extend_from_slice(&raw[fed..boundary]);
            fed = boundary;
            loop {
                match try_parse(&buf, &limits) {
                    Ok(Some((req, consumed))) => {
                        buf.drain(..consumed);
                        parsed.push(req);
                    }
                    Ok(None) => break,
                    Err(e) => prop_assert!(false, "prefix errored: {e:?}"),
                }
            }
        }
        prop_assert!(buf.is_empty(), "undrained bytes: {buf:?}");
        prop_assert_eq!(parsed.len(), 2);
        prop_assert_eq!(&parsed[0].method, &first_ref.method);
        prop_assert_eq!(&parsed[0].path, &first_ref.path);
        prop_assert_eq!(&parsed[0].body, &first_ref.body);
        prop_assert_eq!(&parsed[1].method, &second_ref.method);
        prop_assert_eq!(&parsed[1].path, &second_ref.path);
        prop_assert!(parsed[1].body.is_empty());
    }
}

#[test]
fn header_limit_is_enforced() {
    let mut raw = String::from("GET / HTTP/1.1\r\n");
    for i in 0..100 {
        raw.push_str(&format!("X-H{i}: v\r\n"));
    }
    raw.push_str("\r\n");
    let err = parse(raw.as_bytes()).unwrap_err();
    assert_eq!(err.status(), 431);
}
