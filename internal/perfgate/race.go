//go:build race

package perfgate

func init() { race = true }
