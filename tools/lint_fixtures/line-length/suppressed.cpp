// Fixture: a justified exception for a line that cannot be split.
const char* reference() {
  // DQCSIM_LINT_ALLOW(line-length): a URL is kept whole so it stays
  // clickable and greppable.
  return "https://example.org/dqcsim/fixtures/line-length/a-url-that-is-kept-whole";
}
