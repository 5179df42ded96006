"""End-to-end benchmark and layer ledger; see README.md in this directory."""
