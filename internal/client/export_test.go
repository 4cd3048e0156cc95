package client

// Tracked is how many submissions c still tracks.
func Tracked(c *Client) int { return len(c.reqs) }
