"""Reference implementations the production analyses are checked against."""
